// Command propviewd serves prepared views over HTTP: a long-lived
// deployment of the paper's solvers for sustained traffic, backed by
// internal/engine's cached witness bases and incremental maintenance.
//
//	propviewd -db data.txt [-addr :8080] [-prepare name=QUERY ...]
//
// JSON endpoints (see the README for a curl walkthrough):
//
//	POST /prepare  {"name": "access", "query": "project(user, file; join(UserGroup, GroupFile))"}
//	GET  /query?view=access
//	POST /delete   {"view": "access", "tuple": ["john", "f2"], "objective": "view"}
//	POST /delete   {"view": "access", "tuples": [["john","f1"],["john","f2"]], "objective": "source"}
//	POST /delete   {"view": "access", "tuple": ["john", "f2"], "async": true}
//	POST /insert   {"rel": "UserGroup", "tuple": ["john", "admin"]}
//	POST /insert   {"rel": "UserGroup", "tuples": [["john","admin"],["sue","staff"]], "async": true}
//	POST /annotate {"view": "access", "tuple": ["john", "f1"], "attr": "file"}
//	GET  /stats
//
// Writes — deletions AND source-side insertions — enter the engine's
// bounded write queue (-write-queue; -max-batch tunes the commit). A
// synchronous write answers after its commit, an async one (202 Accepted)
// once queued; async writes commit in admission order. A full queue is a
// 429 for an async write and a 503 for a synchronous one.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting
// requests, commits every queued write — a 202 is a promise — and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

func main() {
	fs := flag.NewFlagSet("propviewd", flag.ExitOnError)
	dbPath := fs.String("db", "", "path to the text database file (required)")
	addr := fs.String("addr", ":8080", "listen address")
	maxBatch := fs.Int("max-batch", 0, "max targets coalesced into one group solve (0 = default 32, 1 disables coalescing)")
	writeQueue := fs.Int("write-queue", 64, "max writes, sync and async, waiting for a commit (0 = default 64); past it async writes get 429, sync ones 503")
	var prepares prepareFlags
	fs.Var(&prepares, "prepare", "view to prepare at boot, as name=QUERY (repeatable)")
	fs.Parse(os.Args[1:])
	if *dbPath == "" {
		fs.Usage()
		fmt.Fprintln(os.Stderr, "propviewd: -db is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*dbPath)
	if err != nil {
		log.Fatalf("propviewd: %v", err)
	}
	db, err := relation.ReadDatabaseString(string(raw))
	if err != nil {
		log.Fatalf("propviewd: %v", err)
	}
	e := engine.New(db, engine.Options{MaxBatchSize: *maxBatch, MaxQueue: *writeQueue})
	for _, p := range prepares {
		if err := e.PrepareText(p.name, p.query); err != nil {
			log.Fatalf("propviewd: prepare %s: %v", p.name, err)
		}
		log.Printf("prepared view %q: %s", p.name, p.query)
	}
	log.Printf("propviewd serving %d relation(s) on %s", len(db.Names()), *addr)
	s := newServer(e)
	srv := &http.Server{
		Addr:         *addr,
		Handler:      s,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Minute, // NP-hard deletes can legitimately run long
		IdleTimeout:  2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Graceful drain: finish in-flight requests, then commit every queued
	// write. Both phases share one generous bound — NP-hard solves can
	// run long — after which remaining writes are abandoned WITH a log line
	// saying how many, instead of hanging until the supervisor's SIGKILL.
	// A second signal also kills the process the default way immediately.
	log.Printf("propviewd: shutting down: draining requests and the write queue")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("propviewd: shutdown: %v", err)
	}
	drained := make(chan struct{})
	go func() {
		e.Close() // refuses later writes, commits every queued one
		close(drained)
	}()
	select {
	case <-drained:
		log.Printf("propviewd: write queue drained; exiting")
	case <-shutCtx.Done():
		depth, _ := e.Queue()
		log.Printf("propviewd: drain timed out; abandoning %d queued write(s)", depth)
	}
}

type prepareFlag struct{ name, query string }

type prepareFlags []prepareFlag

func (p *prepareFlags) String() string { return fmt.Sprintf("%d views", len(*p)) }

func (p *prepareFlags) Set(s string) error {
	name, query, ok := strings.Cut(s, "=")
	if !ok || name == "" || query == "" {
		return fmt.Errorf("want name=QUERY, got %q", s)
	}
	*p = append(*p, prepareFlag{name: name, query: query})
	return nil
}

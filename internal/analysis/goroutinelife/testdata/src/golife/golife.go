// Package golife exercises every join proof goroutinelife accepts — and
// seeds the leaks it must catch.
package golife

import "sync"

func work() {}

// waitgroupJoin: Done in the goroutine, Wait in the launcher.
func waitgroupJoin() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// channelJoin: the goroutine's result is received by the launcher.
func channelJoin() error {
	errc := make(chan error, 1)
	go func() { errc <- nil }()
	return <-errc
}

// closeJoin: the goroutine signals completion by closing a channel the
// launcher blocks on.
func closeJoin() {
	done := make(chan struct{})
	go func() {
		work()
		close(done)
	}()
	<-done
}

func leakLiteral() {
	go func() { work() }() // want "goroutine launched in leakLiteral has no provable join"
}

func leakNamed() {
	go work() // want "goroutine running work launched in leakNamed has no provable join"
}

// server drains on a classifiable channel: run closes s.drained, and
// Close — elsewhere in the package — waits on it. That drain
// registration is the third accepted proof.
type server struct {
	drained chan struct{}
}

func newServer() *server {
	s := &server{drained: make(chan struct{})}
	go s.run()
	return s
}

func (s *server) run() {
	defer close(s.drained)
	work()
}

func (s *server) Close() {
	<-s.drained
}

// leaky signals on a channel nothing in the package ever receives.
type leaky struct {
	done chan struct{}
}

func newLeaky() *leaky {
	l := &leaky{done: make(chan struct{})}
	go l.run() // want "goroutine running leaky.run launched in newLeaky has no provable join"
	return l
}

func (l *leaky) run() {
	defer close(l.done)
}

// pool's worker closes each request's done channel, which await receives,
// but that per-item signal does not prove the worker has returned; its
// exit signal, pool.wg.Done, is waited on by nothing.
type request struct {
	done chan struct{}
}

type pool struct {
	wg    sync.WaitGroup
	queue []*request
}

func (p *pool) start() {
	p.wg.Add(1)
	go p.serve() // want "goroutine running pool.serve launched in pool.start has no provable join"
}

func (p *pool) serve() {
	defer p.wg.Done()
	for _, r := range p.queue {
		close(r.done)
	}
}

func await(r *request) {
	<-r.done
}

package provenance

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// TestHubKeyChurnStress churns a join whose key distribution is maximally
// skewed: one "hub" join value partners a single S tuple with hundreds of
// R tuples, so every deletion and restore lands in the same bucket chain
// and the chain accumulates stale entries as fast as the half-stale bound
// allows. The stress exercises all three bucket fixes at once — per-bucket
// live counts (probes stop at the live fan-out), the O(1) drop of a bucket
// whose live count reaches zero (the hub S tuple dying), and re-added keys
// appearing twice in a chain (hub tuples restored after deletion) — while
// the maintained state must stay byte-identical to a from-scratch
// recompute.
func TestHubKeyChurnStress(t *testing.T) {
	const hubRows = 240
	const cycles = 30
	rng := rand.New(rand.NewSource(7))

	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A", "B"))
	for i := 0; i < hubRows; i++ {
		r1.InsertStrings(fmt.Sprintf("a%d", i), "hub")
	}
	r1.InsertStrings("a-side", "cold") // one non-hub row keeps the node alive when the hub dies
	r2 := relation.New("R2", relation.NewSchema("B", "C"))
	r2.InsertStrings("hub", "c0")
	r2.InsertStrings("cold", "c1")
	db.MustAdd(r1)
	db.MustAdd(r2)

	q := algebra.Pi([]relation.Attribute{"A", "C"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
	res, err := Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	hubS := relation.SourceTuple{Rel: "R2", Tuple: relation.StringTuple("hub", "c0")}

	cur := db
	for cycle := 0; cycle < cycles; cycle++ {
		// Delete a random clutch of hub-side R1 tuples (staling the hub
		// bucket), then restore them (re-adding their keys to the chain).
		var T []relation.SourceTuple
		for k := 0; k < 8; k++ {
			T = append(T, relation.SourceTuple{Rel: "R1", Tuple: relation.StringTuple(fmt.Sprintf("a%d", rng.Intn(hubRows)), "hub")})
		}
		cur = cur.DeleteAll(T)
		res = res.ApplyDeletion(T)
		restored, err := cur.InsertAll(T)
		if err != nil {
			t.Fatal(err)
		}
		cur = restored
		if res, err = res.ApplyInsertion(T); err != nil {
			t.Fatal(err)
		}

		if cycle%5 == 4 {
			// Kill the hub partner itself — the fat bucket's live count hits
			// zero and it must drop — then restore it.
			T := []relation.SourceTuple{hubS}
			cur = cur.DeleteAll(T)
			res = res.ApplyDeletion(T)
			if restored, err = cur.InsertAll(T); err != nil {
				t.Fatal(err)
			}
			cur = restored
			if res, err = res.ApplyInsertion(T); err != nil {
				t.Fatal(err)
			}
		}

		if cycle%6 == 5 || cycle == cycles-1 {
			fresh, err := Compute(q, cur)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := witnessFingerprint(res), witnessFingerprint(fresh); got != want {
				t.Fatalf("cycle %d: state diverged from recompute\n got:\n%s\nwant:\n%s", cycle, got, want)
			}
		}
	}

	// Each delete/restore round trip touches the deleted tuples' own images
	// — not the hub's full fan-out, and never the stale chain history. The
	// bound is generous (candidates appear at scan, join, and project), but
	// a probe cost quadratic in the hub fan-out would blow through it.
	st := res.TreeStats()
	writes := int64(cycles)*2*8 + int64(cycles/5)*2 // tuples written per round trip
	if limit := writes * 64; st.TouchedTuples > limit {
		t.Fatalf("maintenance touched %d tuples across %d written tuples — hub probes not bounded by live fan-out (limit %d)",
			st.TouchedTuples, writes, limit)
	}
}

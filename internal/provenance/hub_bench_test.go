package provenance

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// BenchmarkApplyDeletion_HubSkew measures one view maintenance pass over
// a ≥100k-tuple retained tree whose join-key distribution is skewed: ten
// hub keys fan out 100×20 while fifty thousand cold keys pair 1:1. Each
// iteration deletes one hub's entire R2 side, a ~2000-tuple view delta
// landing in one bucket chain; benchjson distills the result into the
// report's `maintenance` records. The receiver is immutable, so every
// iteration re-derives from the same base tree and the measured work does
// not drift as the benchmark runs.
func BenchmarkApplyDeletion_HubSkew(b *testing.B) {
	const (
		hubs    = 10
		hubR    = 100 // R1 rows per hub key
		hubS    = 20  // R2 rows per hub key
		coldLen = 50000
	)
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A", "B"))
	r2 := relation.New("R2", relation.NewSchema("B", "C"))
	for h := 0; h < hubs; h++ {
		for i := 0; i < hubR; i++ {
			r1.InsertStrings(fmt.Sprintf("a%d_%d", h, i), fmt.Sprintf("hub%d", h))
		}
		for i := 0; i < hubS; i++ {
			r2.InsertStrings(fmt.Sprintf("hub%d", h), fmt.Sprintf("c%d_%d", h, i))
		}
	}
	for i := 0; i < coldLen; i++ {
		k := fmt.Sprintf("k%d", i)
		r1.InsertStrings(fmt.Sprintf("x%d", i), k)
		r2.InsertStrings(k, fmt.Sprintf("y%d", i))
	}
	db.MustAdd(r1)
	db.MustAdd(r2)

	q := algebra.Pi([]relation.Attribute{"A", "C"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
	res, err := Compute(q, db)
	if err != nil {
		b.Fatal(err)
	}
	if nt := res.TreeStats().NodeTuples; nt < 100000 {
		b.Fatalf("retained tree holds %d tuples, want >= 100000", nt)
	}

	// One hub's R2 side per iteration, rotating through the hubs.
	dels := make([][]relation.SourceTuple, hubs)
	for h := 0; h < hubs; h++ {
		for i := 0; i < hubS; i++ {
			dels[h] = append(dels[h], relation.SourceTuple{
				Rel:   "R2",
				Tuple: relation.StringTuple(fmt.Sprintf("hub%d", h), fmt.Sprintf("c%d_%d", h, i)),
			})
		}
	}
	// The setup above allocates on the order of the 100k-tuple tree; clear
	// the debt so GC pacing doesn't land a collection in some runs' timed
	// region and not others'.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.ApplyDeletion(dels[i%hubs])
	}
}

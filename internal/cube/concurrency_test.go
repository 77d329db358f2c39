package cube

import (
	"context"
	"sync"
	"testing"

	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// The engine documents itself as safe for concurrent query execution;
// exercise cold caches (attribute columns, bitmaps, lattice) from many
// goroutines under the race detector.
func TestConcurrentExecute(t *testing.T) {
	e := NewEngine(testStar(t))
	queries := []Query{
		{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}},
		{Rows: []AttrRef{refBand10}, Cols: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}},
		{Rows: []AttrRef{refBand5}, Slicers: []Slicer{{Ref: refDia, Values: []value.Value{value.Str("Yes")}}},
			Measure: MeasureRef{Agg: storage.SumAgg, Column: "FBG"}},
		{Rows: []AttrRef{refDia}, Measure: MeasureRef{Agg: storage.DistinctAgg, Attr: &refPID}},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := queries[(w+i)%len(queries)]
				cs, err := e.ExecuteCtx(context.Background(), q)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if cs.Rows() == 0 {
					t.Errorf("worker %d: empty result", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Concurrent execution must agree with serial execution.
func TestConcurrentResultsConsistent(t *testing.T) {
	s := testStar(t)
	serial := NewEngine(s)
	q := Query{Rows: []AttrRef{refBand10}, Cols: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}}
	want, err := serial.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	concurrent := NewEngine(s)
	results := make([]*CellSet, 16)
	var wg sync.WaitGroup
	for k := range results {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cs, err := concurrent.ExecuteCtx(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			results[k] = cs
		}(k)
	}
	wg.Wait()
	for k, cs := range results {
		if cs == nil {
			continue
		}
		if cs.Total() != want.Total() || cs.Rows() != want.Rows() {
			t.Errorf("result %d: total %g vs %g", k, cs.Total(), want.Total())
		}
	}
}

package cube

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func TestLatticeExactHit(t *testing.T) {
	e := NewEngine(testStar(t))
	q := Query{
		Rows:    []AttrRef{refBand10},
		Cols:    []AttrRef{refGender},
		Measure: MeasureRef{Agg: storage.CountAgg},
	}
	a, err := e.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if e.LatticeSize() != 1 {
		t.Fatalf("lattice size = %d", e.LatticeSize())
	}
	b, err := e.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != b.Total() || a.Rows() != b.Rows() {
		t.Error("cached result disagrees with original")
	}
	// A permuted query (axes swapped) shares the entry.
	if _, err := e.ExecuteCtx(context.Background(), Query{Rows: []AttrRef{refGender}, Cols: []AttrRef{refBand10},
		Measure: MeasureRef{Agg: storage.CountAgg}}); err != nil {
		t.Fatal(err)
	}
	if e.LatticeSize() != 1 {
		t.Errorf("permuted query added entry: size = %d", e.LatticeSize())
	}
}

func TestLatticeRollUpFromFiner(t *testing.T) {
	e := NewEngine(testStar(t))
	fine := Query{
		Rows:    []AttrRef{refBand5},
		Cols:    []AttrRef{refGender},
		Measure: MeasureRef{Agg: storage.CountAgg},
	}
	if _, err := e.ExecuteCtx(context.Background(), fine); err != nil {
		t.Fatal(err)
	}
	// Now a coarser query over a subset of those attrs must be answerable
	// from the lattice (same measure, no slicers).
	coarse := Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}}
	cs, err := e.ExecuteCtx(context.Background(), coarse)
	if err != nil {
		t.Fatal(err)
	}
	if e.LatticeSize() != 1 {
		t.Errorf("roll-up created a new scan entry: size = %d", e.LatticeSize())
	}
	// Roll-up result must match a fresh engine's scan.
	fresh, err := NewEngine(testStar(t), WithAggregateCache(false)).ExecuteCtx(context.Background(), coarse)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() != fresh.Total() || cs.Rows() != fresh.Rows() {
		t.Errorf("rolled-up %g/%d vs scanned %g/%d", cs.Total(), cs.Rows(), fresh.Total(), fresh.Rows())
	}
	for i := 0; i < cs.Rows(); i++ {
		if cs.RowLabel(i) != fresh.RowLabel(i) || !cs.Cell(i, 0).Equal(fresh.Cell(i, 0)) {
			t.Errorf("row %d: %s=%v vs %s=%v", i, cs.RowLabel(i), cs.Cell(i, 0), fresh.RowLabel(i), fresh.Cell(i, 0))
		}
	}
}

func TestLatticeRollUpHandlesMissing(t *testing.T) {
	// Fact 7 has NA Diabetes. Cache the fine (Diabetes, Gender) result,
	// then ask for Gender alone: the NA-Diabetes fact must reappear.
	e := NewEngine(testStar(t))
	fine := Query{
		Rows:    []AttrRef{refDia, refGender},
		Measure: MeasureRef{Agg: storage.CountAgg},
	}
	if _, err := e.ExecuteCtx(context.Background(), fine); err != nil {
		t.Fatal(err)
	}
	coarse := Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}}
	cs, err := e.ExecuteCtx(context.Background(), coarse)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() != 7 {
		t.Errorf("rolled-up total = %g, want 7 (NA fact must not vanish)", cs.Total())
	}
}

func TestLatticeRespectsSlicers(t *testing.T) {
	e := NewEngine(testStar(t))
	unsliced := Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.CountAgg}}
	if _, err := e.ExecuteCtx(context.Background(), unsliced); err != nil {
		t.Fatal(err)
	}
	sliced := Slice(unsliced, refDia, value.Str("Yes"))
	cs, err := e.ExecuteCtx(context.Background(), sliced)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() != 4 {
		t.Errorf("sliced total = %g, want 4 (must not reuse unsliced cache)", cs.Total())
	}
	if e.LatticeSize() != 2 {
		t.Errorf("lattice size = %d, want 2 distinct bases", e.LatticeSize())
	}
}

func TestLatticeSkipsNonAdditive(t *testing.T) {
	e := NewEngine(testStar(t))
	// Min/max need the raw rows and must never be cached.
	q := Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.MaxAgg, Column: "FBG"}}
	if _, err := e.ExecuteCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if e.LatticeSize() != 0 {
		t.Errorf("non-additive measure cached: size = %d", e.LatticeSize())
	}
	// Distinct is also non-additive.
	q2 := Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.DistinctAgg, Attr: &refPID}}
	if _, err := e.ExecuteCtx(context.Background(), q2); err != nil {
		t.Fatal(err)
	}
	if e.LatticeSize() != 0 {
		t.Errorf("distinct cached: size = %d", e.LatticeSize())
	}
}

func TestLatticeAvgRollUp(t *testing.T) {
	// Avg carries its full state in (sum, count), so it is cached and
	// rolled up exactly.
	e := NewEngine(testStar(t))
	fine := Query{Rows: []AttrRef{refBand5, refGender}, Measure: MeasureRef{Agg: storage.AvgAgg, Column: "FBG"}}
	if _, err := e.ExecuteCtx(context.Background(), fine); err != nil {
		t.Fatal(err)
	}
	if e.LatticeSize() != 1 {
		t.Fatalf("avg not cached: size = %d", e.LatticeSize())
	}
	coarse := Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.AvgAgg, Column: "FBG"}}
	cs, err := e.ExecuteCtx(context.Background(), coarse)
	if err != nil {
		t.Fatal(err)
	}
	if e.LatticeSize() != 1 {
		t.Errorf("avg roll-up created a scan entry: size = %d", e.LatticeSize())
	}
	fresh, err := NewEngine(testStar(t), WithAggregateCache(false)).ExecuteCtx(context.Background(), coarse)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows() != fresh.Rows() {
		t.Fatalf("rolled-up rows = %d, scanned rows = %d", cs.Rows(), fresh.Rows())
	}
	for i := 0; i < cs.Rows(); i++ {
		a, b := cs.Cell(i, 0), fresh.Cell(i, 0)
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if aok != bok || (aok && !approx(af, bf)) {
			t.Errorf("row %s: rolled %v vs scanned %v", cs.RowLabel(i), a, b)
		}
	}
}

func TestLatticeSumRollUp(t *testing.T) {
	e := NewEngine(testStar(t))
	fine := Query{Rows: []AttrRef{refBand5, refGender}, Measure: MeasureRef{Agg: storage.SumAgg, Column: "FBG"}}
	if _, err := e.ExecuteCtx(context.Background(), fine); err != nil {
		t.Fatal(err)
	}
	coarse := Query{Rows: []AttrRef{refGender}, Measure: MeasureRef{Agg: storage.SumAgg, Column: "FBG"}}
	cs, err := e.ExecuteCtx(context.Background(), coarse)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(testStar(t), WithAggregateCache(false)).ExecuteCtx(context.Background(), coarse)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cs.Rows(); i++ {
		a, b := cs.Cell(i, 0), fresh.Cell(i, 0)
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if aok != bok || (aok && !approx(af, bf)) {
			t.Errorf("row %s: rolled %v vs scanned %v", cs.RowLabel(i), a, b)
		}
	}
}

// buildRandomStar builds a star schema from pseudo-random facts driven by
// the bytes in seed.
func buildRandomStar(seed []byte) (*star.Schema, error) {
	flat := storage.MustTable(storage.MustSchema(
		storage.Field{Name: "A", Kind: value.StringKind},
		storage.Field{Name: "B", Kind: value.StringKind},
		storage.Field{Name: "M", Kind: value.FloatKind},
	))
	as := []string{"a0", "a1", "a2"}
	bs := []string{"b0", "b1"}
	for i, by := range seed {
		row := []value.Value{
			value.Str(as[int(by)%len(as)]),
			value.Str(bs[int(by>>2)%len(bs)]),
			value.Float(float64(by%17) + float64(i)),
		}
		if by%11 == 0 {
			row[0] = value.NA()
		}
		if err := flat.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return star.NewBuilder("F").
		Dimension("DA", []storage.Field{{Name: "A", Kind: value.StringKind}}, []string{"A"}).
		Dimension("DB", []storage.Field{{Name: "B", Kind: value.StringKind}}, []string{"B"}).
		Measure(storage.Field{Name: "M", Kind: value.FloatKind}, "M").
		Build(flat)
}

// Property: for random fact tables, lattice-cached and scan answers agree
// on count queries at every granularity, including after roll-up.
func TestQuickLatticeAgreesWithScan(t *testing.T) {
	refA := AttrRef{Dim: "DA", Attr: "A"}
	refB := AttrRef{Dim: "DB", Attr: "B"}
	f := func(seed []byte) bool {
		if len(seed) == 0 {
			return true
		}
		s, err := buildRandomStar(seed)
		if err != nil {
			return false
		}
		cached := NewEngine(s, WithAggregateCache(true))
		scan := NewEngine(s, WithAggregateCache(false))
		queries := []Query{
			{Rows: []AttrRef{refA, refB}, Measure: MeasureRef{Agg: storage.CountAgg}},
			{Rows: []AttrRef{refA}, Measure: MeasureRef{Agg: storage.CountAgg}},
			{Rows: []AttrRef{refB}, Measure: MeasureRef{Agg: storage.CountAgg}},
			{Rows: []AttrRef{refB}, Measure: MeasureRef{Agg: storage.CountAgg}, IncludeMissing: true},
			{Rows: []AttrRef{refA}, Cols: []AttrRef{refB}, Measure: MeasureRef{Agg: storage.SumAgg, Column: "M"}},
			{Rows: []AttrRef{refA}, Measure: MeasureRef{Agg: storage.SumAgg, Column: "M"}},
		}
		for _, q := range queries {
			a, err1 := cached.ExecuteCtx(context.Background(), q)
			b, err2 := scan.ExecuteCtx(context.Background(), q)
			if err1 != nil || err2 != nil {
				return false
			}
			if a.Rows() != b.Rows() || a.Columns() != b.Columns() {
				return false
			}
			for i := 0; i < a.Rows(); i++ {
				for j := 0; j < a.Columns(); j++ {
					av, bv := a.Cell(i, j), b.Cell(i, j)
					af, aok := av.AsFloat()
					bf, bok := bv.AsFloat()
					if aok != bok {
						return false
					}
					if aok && !approx(af, bf) {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBitmapPrimitives(t *testing.T) {
	b := NewBitmap(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Error("set/get broken")
	}
	if b.Count() != 3 {
		t.Errorf("count = %d", b.Count())
	}
	o := NewBitmap(130)
	o.Set(64)
	c := b.Clone()
	c.And(o)
	if c.Count() != 1 || !c.Get(64) {
		t.Errorf("and: count=%d", c.Count())
	}
	c.Or(b)
	if c.Count() != 3 {
		t.Errorf("or: count=%d", c.Count())
	}
	full := NewBitmap(130)
	full.Fill()
	if full.Count() != 130 {
		t.Errorf("fill count = %d", full.Count())
	}
	// And with a shorter bitmap zeroes the overhang.
	short := NewBitmap(10)
	short.Fill()
	full.And(short)
	if full.Count() != 10 {
		t.Errorf("and-short count = %d", full.Count())
	}
}

// Package exec implements the shared vectorized execution core of the
// DD-DGMS platform. Every query layer — the storage engine's group-by, the
// OLAP cube, the flat-scan baseline and the DG-SQL executor — aggregates
// low-cardinality clinical attributes; this package gives them one common
// engine for that workload: dictionary-encoded columns (value.Value ->
// uint32 code with a reverse table), a canonical tuple encoding, and a
// group-by/aggregate kernel that keys groups on packed integer codes,
// partitions the row range across a GOMAXPROCS-sized worker pool, and
// merges per-worker partial aggregates deterministically.
//
// Coded columns come in three physical encodings — flat []uint32,
// bit-packed words, and RLE runs — chosen per column at build time from a
// stats pass (see encoding.go). The kernel operates on the compressed
// form directly: block cursors decode packed words a word at a time,
// all-RLE key sets group per run instead of per row, and partial
// aggregate state lives in per-worker arenas.
//
// The kernel picks one of three accumulation paths per invocation from
// the packed key width: a direct-indexed dense table when the whole
// tuple fits maxDenseBits, a uint64-keyed hash map when it fits a
// machine word, and a raw-code byte-string map beyond that. The legacy
// scalar path (string-keyed map over materialised values) is retained
// behind WithVectorized(false) as the ablation baseline.
//
// The kernel is instrumented for internal/obs: per-invocation counters
// (rows scanned, groups produced, path taken, worker fan-out, merge
// time) and, when the WithContext context carries a parent span
// (obs.ContextWithSpan), exec.scan / exec.merge / exec.sort phase
// spans. Recording is per invocation, never per row, so the hot loops
// are untouched.
package exec

import (
	"math"
	"strings"

	"github.com/ddgms/ddgms/internal/value"
)

// NACode is the dictionary code reserved for the missing value: every
// CodedColumn maps NA to code 0, so kernels (and callers building filters)
// can test missingness with a single integer compare.
const NACode uint32 = 0

// CodedColumn is the dictionary-encoded view of a column: a per-row code
// vector in one of three physical encodings (flat, bit-packed, RLE) plus
// the reverse table mapping codes back to values. Values()[0] is always
// NA. A CodedColumn is immutable once built and therefore safe for
// concurrent readers.
//
// Code and Value are the random-access accessors; scans should prefer
// AppendCodes, which decodes a row range in bulk (word-at-a-time for
// packed columns, run expansion for RLE), or type-switch on the concrete
// encodings for zero-copy (FlatColumn) and per-run (RLEColumn) access.
type CodedColumn interface {
	// Len reports the number of rows.
	Len() int
	// Card reports the dictionary cardinality, including the reserved NA
	// entry.
	Card() int
	// Code returns the dictionary code of row i.
	Code(i int) uint32
	// Value materialises row i. It implements the Measure accessor, so a
	// coded column can be aggregated over directly (the cube's distinct
	// patient counts take this path).
	Value(i int) value.Value
	// IsNA reports whether row i is missing.
	IsNA(i int) bool
	// Values returns the dictionary (code -> value). Callers must not
	// mutate it.
	Values() []value.Value
	// Encoding reports the physical layout.
	Encoding() Encoding
	// CodeBytes reports the resident size of the code vector in bytes
	// (dictionary excluded) — the quantity the storage gauges track.
	CodeBytes() int
	// AppendCodes appends the codes of rows [lo, hi) to dst and returns
	// the extended slice.
	AppendCodes(dst []uint32, lo, hi int) []uint32
}

// dictBuilder interns values into a flat code vector under construction;
// finish() re-encodes it into the chosen physical layout.
type dictBuilder struct {
	codes   []uint32
	values  []value.Value
	index   map[value.Value]uint32
	nanCode uint32 // float NaN never equals itself, so it needs a pinned code
}

func newDictBuilder(rows int) *dictBuilder {
	return &dictBuilder{
		codes:  make([]uint32, 0, rows),
		values: []value.Value{value.NA()},
		index:  map[value.Value]uint32{value.NA(): NACode},
	}
}

// intern returns the code for v, extending the dictionary when v is new.
// Float NaN is folded onto one code (matching the string-keyed legacy
// grouping, where every NaN rendered as "NaN" and grouped together).
func (b *dictBuilder) intern(v value.Value) uint32 {
	if v.Kind() == value.FloatKind && math.IsNaN(v.Float()) {
		if b.nanCode == 0 {
			b.nanCode = uint32(len(b.values))
			b.values = append(b.values, v)
		}
		return b.nanCode
	}
	if code, ok := b.index[v]; ok {
		return code
	}
	code := uint32(len(b.values))
	b.values = append(b.values, v)
	b.index[v] = code
	return code
}

func (b *dictBuilder) append(v value.Value) {
	b.codes = append(b.codes, b.intern(v))
}

func (b *dictBuilder) finish() CodedColumn {
	return NewCodedColumn(b.codes, b.values)
}

// Encode dictionary-encodes a materialised value slice. It is the generic
// path used for the cube engine's attribute columns; the storage layer
// builds its dictionaries directly from typed column payloads.
func Encode(vals []value.Value) CodedColumn {
	b := newDictBuilder(len(vals))
	for _, v := range vals {
		b.append(v)
	}
	return b.finish()
}

// EncodeFunc dictionary-encodes n rows produced by at(i). It lets typed
// columns encode without first materialising a []value.Value.
func EncodeFunc(n int, at func(i int) value.Value) CodedColumn {
	b := newDictBuilder(n)
	for i := 0; i < n; i++ {
		b.append(at(i))
	}
	return b.finish()
}

// ExtendCoded returns a new CodedColumn equal to c with vals appended,
// reusing (and growing) c's dictionary. The input column is never
// mutated — CodedColumns are immutable and may be held by concurrent
// readers — so incremental maintainers extend by swapping in the
// returned column. The dictionary index is rebuilt from c.Values(), which
// restores the NaN pinning of the original builder. The physical encoding
// is re-chosen for the extended column, so a column that stops (or
// starts) compressing migrates layouts as the CDC stream grows it.
func ExtendCoded(c CodedColumn, vals []value.Value) CodedColumn {
	oldValues := c.Values()
	b := &dictBuilder{
		codes:  c.AppendCodes(make([]uint32, 0, c.Len()+len(vals)), 0, c.Len()),
		values: append(make([]value.Value, 0, len(oldValues)+1), oldValues...),
		index:  make(map[value.Value]uint32, len(oldValues)),
	}
	for code, v := range oldValues {
		if v.Kind() == value.FloatKind && math.IsNaN(v.Float()) {
			b.nanCode = uint32(code)
			continue
		}
		b.index[v] = uint32(code)
	}
	for _, v := range vals {
		b.append(v)
	}
	return b.finish()
}

// EncodeTuple canonically encodes a tuple of values as a string map key:
// kind tag, ':', the value's display form, NUL. This is the one shared
// implementation of the tuple encoding previously duplicated as
// storage.groupKey and cube.encodeTuple; unlike those it avoids
// fmt.Sprintf on the hot path. It remains the keying scheme of the legacy
// scalar group-by and of cell-set assembly, where tuples of variable
// width need a comparable encoding.
func EncodeTuple(vals []value.Value) string {
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteByte('0' + byte(v.Kind()))
		sb.WriteByte(':')
		sb.WriteString(v.String())
		sb.WriteByte(0)
	}
	return sb.String()
}

// CompareTuples orders two equal-width tuples lexicographically by
// value.Compare — the deterministic group order every kernel output uses.
func CompareTuples(a, b []value.Value) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

package eco

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/geom"
)

// This file keeps a test-local copy of the string-keyed differ that
// DiffDesigns replaced: net and cell signatures built from fmt-formatted
// (cell name, offset, pair ID) strings hashed with FNV-1a, and net pairing
// through a map of signature buckets. DiffDesigns must return a Diff that
// is reflect.DeepEqual to it: the binary keys are a faster encoding of the
// same identity, not a new one.

// refDiffDesigns is the string-keyed DiffDesigns.
func refDiffDesigns(base, next *db.Design) *Diff {
	df := &Diff{BaseCells: len(base.Cells)}
	baseSigs := refNetSignatures(base)
	nextSigs := refNetSignatures(next)
	basePair, nextPair := refPairNets(df, base, next, baseSigs, nextSigs)
	baseCellSig := refCellSignatures(base, basePair)
	nextCellSig := refCellSignatures(next, nextPair)

	baseRowH := base.RowHeight()
	nextRowH := next.RowHeight()
	for i := range next.Cells {
		nc := &next.Cells[i]
		bi := base.CellIndex(nc.Name)
		if bi < 0 {
			df.Added = append(df.Added, i)
			if kindForDiff(nc, nextRowH) == db.Macro {
				df.MacroDelta = true
			}
			continue
		}
		bc := &base.Cells[bi]
		same := baseCellSig[bi] == nextCellSig[i]
		if same && !nc.Movable() {
			same = bc.Pos == nc.Pos && bc.Orient == nc.Orient
		}
		if same {
			df.Unchanged = append(df.Unchanged, i)
			continue
		}
		df.Changed = append(df.Changed, i)
		if kindForDiff(nc, nextRowH) == db.Macro || kindForDiff(bc, baseRowH) == db.Macro {
			df.MacroDelta = true
		}
	}
	for i := range base.Cells {
		bc := &base.Cells[i]
		if next.CellIndex(bc.Name) >= 0 {
			continue
		}
		df.RemovedNames = append(df.RemovedNames, bc.Name)
		df.RemovedRects = append(df.RemovedRects, bc.Rect())
		if kindForDiff(bc, baseRowH) == db.Macro {
			df.MacroDelta = true
		}
	}
	return df
}

// refPairNets is the map-bucketed two-pass net pairing.
func refPairNets(df *Diff, base, next *db.Design, baseSigs, nextSigs []uint64) (basePair, nextPair []int64) {
	basePair = make([]int64, len(base.Nets))
	nextPair = make([]int64, len(next.Nets))
	for n := range basePair {
		basePair[n] = -1
	}
	for n := range nextPair {
		nextPair[n] = -1
	}
	bySig := make(map[uint64][]int, len(base.Nets))
	for n := range base.Nets {
		bySig[baseSigs[n]] = append(bySig[baseSigs[n]], n)
	}
	var pairID int64
	var unresolved []int
	for n := range next.Nets {
		if bucket := bySig[nextSigs[n]]; len(bucket) > 0 {
			b := bucket[0]
			bySig[nextSigs[n]] = bucket[1:]
			basePair[b], nextPair[n] = pairID, pairID
			pairID++
			df.NetsUnchanged++
			continue
		}
		unresolved = append(unresolved, n)
	}
	byName := make(map[string]int, len(base.Nets))
	for n := range base.Nets {
		if basePair[n] >= 0 {
			continue
		}
		if name := base.Nets[n].Name; name != "" {
			if _, dup := byName[name]; !dup {
				byName[name] = n
			}
		}
	}
	for _, n := range unresolved {
		if name := next.Nets[n].Name; name != "" {
			if b, ok := byName[name]; ok && basePair[b] < 0 {
				basePair[b], nextPair[n] = pairID, pairID
				pairID++
				df.NetsChanged++
				continue
			}
		}
		df.NetsAdded++
	}
	for n := range base.Nets {
		if basePair[n] < 0 {
			df.NetsRemoved++
		}
	}
	const (
		removedBase = int64(1) << 40
		addedBase   = int64(1) << 41
	)
	for n := range basePair {
		if basePair[n] < 0 {
			basePair[n] = removedBase + int64(n)
		}
	}
	for n := range nextPair {
		if nextPair[n] < 0 {
			nextPair[n] = addedBase + int64(n)
		}
	}
	return basePair, nextPair
}

// refNetSignatures hashes weight plus the sorted (cell name, offset)
// strings of every net.
func refNetSignatures(d *db.Design) []uint64 {
	sigs := make([]uint64, len(d.Nets))
	var parts []string
	for n := range d.Nets {
		net := &d.Nets[n]
		parts = parts[:0]
		for _, p := range net.Pins {
			pin := &d.Pins[p]
			parts = append(parts, fmt.Sprintf("%s\x00%x\x00%x",
				d.Cells[pin.Cell].Name,
				math.Float64bits(refCanonF(pin.Offset.X)),
				math.Float64bits(refCanonF(pin.Offset.Y))))
		}
		sort.Strings(parts)
		h := fnv.New64a()
		w := net.Weight
		if w == 0 {
			w = 1
		}
		fmt.Fprintf(h, "w%x|", math.Float64bits(w))
		for _, s := range parts {
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
		sigs[n] = h.Sum64()
	}
	return sigs
}

// refCellSignatures hashes kind, dimensions, region name and the sorted
// (offset, pair ID) strings of every cell.
func refCellSignatures(d *db.Design, pairIDs []int64) []uint64 {
	sigs := make([]uint64, len(d.Cells))
	rowH := d.RowHeight()
	var parts []string
	for i := range d.Cells {
		c := &d.Cells[i]
		h := fnv.New64a()
		fmt.Fprintf(h, "k%d|w%x|h%x|",
			kindForDiff(c, rowH),
			math.Float64bits(refCanonF(c.BaseW)), math.Float64bits(refCanonF(c.BaseH)))
		if ri := d.CellRegion(i); ri != db.NoRegion {
			fmt.Fprintf(h, "r%s|", d.Regions[ri].Name)
		}
		parts = parts[:0]
		for _, p := range c.Pins {
			pin := &d.Pins[p]
			parts = append(parts, fmt.Sprintf("%x\x00%x\x00%x",
				math.Float64bits(refCanonF(pin.Offset.X)),
				math.Float64bits(refCanonF(pin.Offset.Y)),
				pairIDs[pin.Net]))
		}
		sort.Strings(parts)
		for _, s := range parts {
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
		sigs[i] = h.Sum64()
	}
	return sigs
}

func refCanonF(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// checkAgainstRef fails unless DiffDesigns matches the reference.
func checkAgainstRef(t testing.TB, what string, base, next *db.Design) *Diff {
	t.Helper()
	got := DiffDesigns(base, next)
	if want := refDiffDesigns(base, next); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DiffDesigns differs from the string-keyed reference:\n got %+v\nwant %+v", what, got, want)
	}
	return got
}

// sbA returns the suite's sb-a design as generated (the input deltas are
// cut from) and a base copy with its movable macros pinned, as the full
// flow's macro legalizer leaves them in a placed base.
func sbA() (in, base *db.Design) {
	in = gen.MustGenerate(gen.Suite()[0])
	base = in.Clone()
	for _, mi := range base.MovableMacros() {
		base.Cells[mi].Fixed = true
	}
	return in, base
}

// perfbenchDelta is delta i of seed s in the benchmark's ECO stream: 1%
// of the movable std cells removed, 1% added, 0.5% of their pins rewired.
func perfbenchDelta(in *db.Design, s, i int) *db.Design {
	return gen.Perturb(in, gen.Perturbation{
		Seed: int64(s)*1000 + int64(i), RemoveFrac: 0.01, AddFrac: 0.01, RewireFrac: 0.005,
	})
}

// TestDiffDesignsMatchesReferenceOnDeltaMix runs the benchmark's delta mix
// — seeds 1–3 × 100 sb-a deltas — through both differs (10 deltas per
// seed under -short or -race).
func TestDiffDesignsMatchesReferenceOnDeltaMix(t *testing.T) {
	in, base := sbA()
	deltas := 100
	if testing.Short() || raceEnabled {
		deltas = 10
	}
	for s := 1; s <= 3; s++ {
		for i := 0; i < deltas; i++ {
			df := checkAgainstRef(t, fmt.Sprintf("seed %d delta %d", s, i), base, perfbenchDelta(in, s, i))
			if df.Empty() || df.NeedFull() {
				t.Fatalf("seed %d delta %d: want a repairable non-empty delta, got %d changed, %d removed, macro %v",
					s, i, df.ChangedCells(), len(df.RemovedNames), df.MacroDelta)
			}
		}
	}
}

// fencedBase is buildBase with a fence: cells a and b belong to region
// "g1".
func fencedBase() *db.Design {
	d := buildBase()
	d.Regions = append(d.Regions, db.Region{Name: "g1", Rects: []geom.Rect{geom.NewRect(0, 0, 40, 40)}})
	for _, name := range []string{"a", "b"} {
		d.Cells[d.CellIndex(name)].Region = 0
	}
	return d
}

// addPin wires a new pin of the named cell onto net n.
func addPin(d *db.Design, cell string, n int, off geom.Point) {
	ci := d.CellIndex(cell)
	pi := len(d.Pins)
	d.Pins = append(d.Pins, db.Pin{Cell: ci, Net: n, Offset: off})
	d.Cells[ci].Pins = append(d.Cells[ci].Pins, pi)
	d.Nets[n].Pins = append(d.Nets[n].Pins, pi)
}

// rename renames a cell and drops the stale name index.
func rename(d *db.Design, from, to string) {
	d.Cells[d.CellIndex(from)].Name = to
	d.InvalidateNameIndex()
}

func addMacro(d *db.Design, name string) {
	d.Cells = append(d.Cells, db.Cell{
		Name: name, Kind: db.Macro, BaseW: 10, BaseH: 10,
		Region: db.NoRegion, Module: db.NoModule, Inflate: 1,
	})
	d.InvalidateNameIndex()
}

// TestDiffDesignsMatchesReferenceHandBuilt covers the identity corners the
// binary keys must encode exactly as the strings did.
func TestDiffDesignsMatchesReferenceHandBuilt(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name  string
		base  func() *db.Design
		edit  func(base, next *db.Design)
		empty bool // the expected verdict, on top of matching the reference
	}{
		{"identical", buildBase, func(_, _ *db.Design) {}, true},
		{"renamed net", buildBase, func(_, next *db.Design) { next.Nets[1].Name = "renamed" }, true},
		{"net weight 0 vs 1", buildBase, func(_, next *db.Design) { next.Nets[0].Weight = 0 }, true},
		{"net weight 2 vs 1", buildBase, func(_, next *db.Design) { next.Nets[0].Weight = 2 }, true},
		{"negative zero offsets", buildBase, func(base, next *db.Design) {
			base.Pins[0].Offset = geom.Point{}
			next.Pins[0].Offset = geom.Point{X: negZero, Y: negZero}
			base.Cells[base.CellIndex("a")].BaseW = 0
			next.Cells[next.CellIndex("a")].BaseW = negZero
		}, true},
		{"duplicate cell name in base", buildBase, func(base, _ *db.Design) { rename(base, "d", "c") }, false},
		{"duplicate cell name in next", buildBase, func(_, next *db.Design) { rename(next, "d", "c") }, false},
		{"duplicate cell name in both", buildBase, func(base, next *db.Design) {
			rename(base, "d", "c")
			rename(next, "d", "c")
		}, false},
		{"duplicate new name in next", buildBase, func(_, next *db.Design) {
			rename(next, "c", "x")
			rename(next, "d", "x")
		}, false},
		{"two pins of one cell on one net", buildBase, func(_, next *db.Design) {
			addPin(next, "a", 0, geom.Point{X: 1, Y: 1})
		}, false},
		{"two pins of one cell on one net in both", buildBase, func(base, next *db.Design) {
			addPin(base, "a", 0, geom.Point{X: 1, Y: 1})
			addPin(next, "a", 0, geom.Point{X: 1, Y: 1})
		}, true},
		{"renamed region", fencedBase, func(_, next *db.Design) { next.Regions[0].Name = "g2" }, false},
		{"region reindexed", fencedBase, func(_, next *db.Design) {
			next.Regions = append([]db.Region{{Name: "g0"}}, next.Regions...)
			for _, name := range []string{"a", "b"} {
				next.Cells[next.CellIndex(name)].Region = 1
			}
		}, true},
		{"renamed cell", buildBase, func(_, next *db.Design) { rename(next, "b", "b2") }, false},
		{"rewired pin", buildBase, func(_, next *db.Design) {
			pi := next.Nets[0].Pins[0]
			next.Nets[0].Pins = next.Nets[0].Pins[1:]
			next.Pins[pi].Net = 2
			next.Nets[2].Pins = append(next.Nets[2].Pins, pi)
		}, false},
		{"moved fixed cell", buildBase, func(_, next *db.Design) {
			next.Cells[next.CellIndex("blk")].Pos = geom.Point{X: 60, Y: 20}
		}, false},
		{"added macro", buildBase, func(_, next *db.Design) { addMacro(next, "blk2") }, false},
		{"removed macro", buildBase, func(base, _ *db.Design) { addMacro(base, "blk2") }, false},
	}
	for _, tc := range cases {
		base := tc.base()
		next := base.Clone()
		tc.edit(base, next)
		df := checkAgainstRef(t, tc.name, base, next)
		if df.Empty() != tc.empty {
			t.Errorf("%s: Empty() = %v, want %v (%+v)", tc.name, df.Empty(), tc.empty, df)
		}
	}
}

// TestConcurrentDiffSameBase diffs four deltas against one shared base at
// once, the way placerd runs delta jobs of one base job. The base's name
// index is built during the concurrent calls, so under -race this pins
// that its lazy construction is safe.
func TestConcurrentDiffSameBase(t *testing.T) {
	in := gen.MustGenerate(gen.SmallSuite()[0])
	base := in.Clone() // no name index built yet
	const n = 4
	nexts := make([]*db.Design, n)
	want := make([]*Diff, n)
	for k := range nexts {
		nexts[k] = perfbenchDelta(in, 1, k)
		want[k] = refDiffDesigns(base.Clone(), nexts[k].Clone())
	}
	got := make([]*Diff, n)
	var wg sync.WaitGroup
	for k := range nexts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = DiffDesigns(base, nexts[k])
		}()
	}
	wg.Wait()
	for k := range got {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("delta %d: concurrent diff differs from the serial reference", k)
		}
	}
}

// maxDiffAllocs bounds the allocations of one sb-a DiffDesigns call (85
// when it was set, mostly slice growth of the result lists). The binary
// keys allocate per call, not per pin or per net; the string keys
// allocated several times per pin, about 152k times per sb-a delta.
const maxDiffAllocs = 150

func TestDiffDesignsAllocs(t *testing.T) {
	in, base := sbA()
	next := perfbenchDelta(in, 1, 0)
	DiffDesigns(base, next) // builds base's name index
	if a := testing.AllocsPerRun(10, func() { DiffDesigns(base, next) }); a > maxDiffAllocs {
		t.Fatalf("DiffDesigns allocates %.0f times per sb-a delta, ceiling %d", a, maxDiffAllocs)
	}
}

func BenchmarkDiffDesigns(b *testing.B) {
	in, base := sbA()
	next := perfbenchDelta(in, 1, 0)
	DiffDesigns(base, next)
	b.ReportAllocs()
	for b.Loop() {
		DiffDesigns(base, next)
	}
}

var fuzzIn = sync.OnceValue(func() *db.Design { return gen.MustGenerate(gen.SmallSuite()[0]) })

// FuzzDiffDesigns perturbs a small suite design with fuzzed seed and
// fractions, then applies one fuzzed name edit to the delta: the low two
// bits of edit pick none, a net renamed to a fresh name, a net renamed to
// another net's name, or a cell given another cell's name; the rest pick
// which. The differ must never panic and must match the reference.
func FuzzDiffDesigns(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(1), uint8(0))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(3), uint8(25), uint8(25), uint8(12), uint8(2))
	f.Add(int64(4), uint8(3), uint8(0), uint8(0), uint8(7))
	f.Add(int64(5), uint8(255), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, remove, add, rewire, edit uint8) {
		in := fuzzIn()
		next := gen.Perturb(in, gen.Perturbation{
			Seed:       seed,
			RemoveFrac: float64(remove) / 255,
			AddFrac:    float64(add) / 255,
			RewireFrac: float64(rewire) / 255,
		})
		at := func(n int) int { return int(edit>>2) * n / 64 }
		switch edit & 3 {
		case 1:
			if len(next.Nets) > 0 {
				next.Nets[at(len(next.Nets))].Name = "fuzz_net"
			}
		case 2:
			if n := len(next.Nets); n > 1 {
				k := at(n)
				next.Nets[k].Name = next.Nets[(k+1)%n].Name
			}
		case 3:
			if n := len(next.Cells); n > 1 {
				k := at(n)
				next.Cells[k].Name = next.Cells[(k+1)%n].Name
				next.InvalidateNameIndex()
			}
		}
		checkAgainstRef(t, "fuzz", in, next)
	})
}

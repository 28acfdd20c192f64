package eco

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/db"
	"repro/internal/geom"
)

// Diff classifies every cell of the edited ("next") design against a base:
//
//   - Unchanged: same name, same canonical attributes, same connectivity —
//     the base position is reusable as-is.
//   - Changed: same name, but the cell's pins moved to different nets, its
//     offsets/dimensions/fence changed, or (for non-movable cells) its
//     position moved — the cell keeps the base position as a starting
//     point but must be re-placed.
//   - Added: present only in next.
//   - Removed: present only in the base; its old footprint is recorded so
//     the freed area joins the repair windows.
//
// A renamed-but-otherwise-identical cell deliberately classifies as
// removed+added: names are the only stable identity across netlist
// revisions, and guessing at structural matches would make the diff both
// slower and nondeterministic. The classification mirrors the canonical
// fingerprint (db.Design.Fingerprint): net names are ignored, net weight 0
// hashes like the default 1, and cell kinds compare in their canonical
// round-trip form.
type Diff struct {
	// Unchanged, Changed and Added index cells of the next design.
	Unchanged []int
	Changed   []int
	Added     []int
	// RemovedNames lists base-only cells in base order; RemovedRects holds
	// their base footprints (zero-area points when the base is a bare .pl
	// and the dimensions are unknown).
	RemovedNames []string
	RemovedRects []geom.Rect

	// MacroDelta is set when a macro (or a cell whose canonical kind is
	// macro) was added, removed or changed — window repair cannot move
	// macros, so callers must fall back to a full place.
	MacroDelta bool

	// Net classification counts (informational; net identity is by
	// connectivity signature first, then by name for edited nets).
	NetsUnchanged, NetsChanged, NetsAdded, NetsRemoved int

	// BaseCells is the base design's cell count (0 for placement-only
	// diffs where only matched names are known).
	BaseCells int
}

// ChangedCells is the number of next-design cells needing re-placement.
func (df *Diff) ChangedCells() int { return len(df.Changed) + len(df.Added) }

// Empty reports a no-op edit: every next cell matched an unchanged base
// cell and nothing was removed.
func (df *Diff) Empty() bool {
	return df.ChangedCells() == 0 && len(df.RemovedNames) == 0
}

// DirtyCount is the number of dirty seeds the repair windows grow from.
func (df *Diff) DirtyCount() int { return df.ChangedCells() + len(df.RemovedNames) }

// ReuseRatio is the fraction of next cells whose base position transfers.
func (df *Diff) ReuseRatio() float64 {
	total := len(df.Unchanged) + len(df.Changed) + len(df.Added)
	if total == 0 {
		return 0
	}
	return float64(len(df.Unchanged)) / float64(total)
}

// NeedFull reports whether the delta is outside windowed repair's reach:
// a macro changed, or the dirty fraction exceeds maxDirtyFrac — past that,
// repairing windows costs more than it saves and quality suffers from the
// frozen surroundings.
func (df *Diff) NeedFull() bool {
	if df.MacroDelta {
		return true
	}
	total := len(df.Unchanged) + len(df.Changed) + len(df.Added)
	if total == 0 {
		return true
	}
	return float64(df.DirtyCount())/float64(total) > maxDirtyFrac
}

// maxDirtyFrac is the dirty-set fraction above which NeedFull recommends
// a from-scratch place.
const maxDirtyFrac = 0.25

// DiffDesigns computes the full netlist diff between a base design and the
// edited next design. Both designs are read-only; the result indexes
// next's cells. The diff is deterministic: classifications come out in
// design order, never map order. Concurrent calls may share one base.
//
// Net identity is resolved in two passes — untouched nets match by
// connectivity signature (so net renames are invisible, like in the
// canonical fingerprint), then edited nets match by name. A cell is
// "moved-pin" only when its own pin list maps to different nets; cells
// that merely share a net with an edited cell keep their base position,
// which is what keeps small edits' dirty sets small.
func DiffDesigns(base, next *db.Design) *Diff {
	df := &Diff{BaseCells: len(base.Cells)}
	baseIDs, nextIDs := nameIDs(base, next)
	var sc sigScratch
	baseSigs := sc.netSignatures(base, baseIDs)
	nextSigs := sc.netSignatures(next, nextIDs)
	basePair, nextPair := df.pairNets(base, next, baseSigs, nextSigs)
	baseRegion, nextRegion := regionIDs(base, next)
	baseCellSig := sc.cellSignatures(base, basePair, baseRegion)
	nextCellSig := sc.cellSignatures(next, nextPair, nextRegion)

	baseRowH := base.RowHeight()
	nextRowH := next.RowHeight()
	// present marks, by name id, the base names next still uses.
	present := make([]bool, len(base.Cells))
	for i := range next.Cells {
		nc := &next.Cells[i]
		bi := nextIDs[i]
		if bi >= len(base.Cells) {
			df.Added = append(df.Added, i)
			if kindForDiff(nc, nextRowH) == db.Macro {
				df.MacroDelta = true
			}
			continue
		}
		present[bi] = true
		bc := &base.Cells[bi]
		same := baseCellSig[bi] == nextCellSig[i]
		// Positions of non-movable cells are part of the problem
		// statement, not the solution: a moved fixed macro or terminal
		// invalidates its surroundings even with identical connectivity.
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
		if present[baseIDs[i]] {
			continue
		}
		bc := &base.Cells[i]
		df.RemovedNames = append(df.RemovedNames, bc.Name)
		df.RemovedRects = append(df.RemovedRects, bc.Rect())
		if kindForDiff(bc, baseRowH) == db.Macro {
			df.MacroDelta = true
		}
	}
	return df
}

// nameIDs numbers cell names across both designs. A name's id is its base
// index (the last base cell of that name, as base.CellIndex resolves
// duplicates); a next-only name gets len(base.Cells) plus the index of its
// last next cell. Equal names get equal ids in both designs and distinct
// names distinct ids, so a net key can carry the id in place of the name.
// Only base's name index is consulted: next's is never built.
func nameIDs(base, next *db.Design) (baseIDs, nextIDs []int) {
	baseIDs = make([]int, len(base.Cells))
	for i := range base.Cells {
		baseIDs[i] = base.CellIndex(base.Cells[i].Name)
	}
	nextIDs = make([]int, len(next.Cells))
	var nextOnly map[string]int
	for i := range next.Cells {
		name := next.Cells[i].Name
		if nextIDs[i] = base.CellIndex(name); nextIDs[i] < 0 {
			if nextOnly == nil {
				nextOnly = make(map[string]int)
			}
			nextOnly[name] = len(base.Cells) + i
		}
	}
	for i := range nextIDs {
		if nextIDs[i] < 0 {
			nextIDs[i] = nextOnly[next.Cells[i].Name]
		}
	}
	return baseIDs, nextIDs
}

// regionIDs numbers fence region names across both designs: equal names
// get equal ids, distinct names distinct ones, counted from 1 so that 0
// means "no fence".
func regionIDs(base, next *db.Design) (baseIDs, nextIDs []uint64) {
	byName := make(map[string]uint64, len(base.Regions)+len(next.Regions))
	number := func(d *db.Design) []uint64 {
		out := make([]uint64, len(d.Regions))
		for r := range d.Regions {
			id, ok := byName[d.Regions[r].Name]
			if !ok {
				id = uint64(len(byName)) + 1
				byName[d.Regions[r].Name] = id
			}
			out[r] = id
		}
		return out
	}
	return number(base), number(next)
}

// pairNets resolves net identity across the two designs and fills the
// Nets* counters. Untouched nets pair by connectivity signature (so net
// renames are invisible); edited nets pair by name; leftovers count as
// added/removed. The returned slices map each net index to a pair ID such
// that a base pin and a next pin carry the same ID exactly when their nets
// paired. Cell signatures hash pair IDs instead of raw connectivity, so an
// edit to a net dirties only cells whose own pins moved — not every cell
// that happens to share the net.
func (df *Diff) pairNets(base, next *db.Design, baseSigs, nextSigs []uint64) (basePair, nextPair []int64) {
	basePair = make([]int64, len(base.Nets))
	nextPair = make([]int64, len(next.Nets))
	for n := range basePair {
		basePair[n] = -1
	}
	for n := range nextPair {
		nextPair[n] = -1
	}

	// Pass 1: identical connectivity. head[sig] is the lowest untaken
	// base net with that signature and later ones chain through more[] in
	// index order; next nets scan in index order, so duplicate
	// signatures pair deterministically.
	head := make(map[uint64]int, len(base.Nets))
	more := make([]int, len(base.Nets))
	for n := len(base.Nets) - 1; n >= 0; n-- {
		more[n] = -1
		if h, ok := head[baseSigs[n]]; ok {
			more[n] = h
		}
		head[baseSigs[n]] = n
	}
	var pairID int64
	var unresolved []int
	for n := range next.Nets {
		if b, ok := head[nextSigs[n]]; ok && b >= 0 {
			head[nextSigs[n]] = more[b]
			basePair[b], nextPair[n] = pairID, pairID
			pairID++
			df.NetsUnchanged++
			continue
		}
		unresolved = append(unresolved, n)
	}

	// Pass 2: edited nets keep their name as identity (first base net
	// wins on a duplicate name).
	byName := make(map[string]int, len(base.Nets)-int(pairID))
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

	// Unpaired nets get side-disjoint IDs so a base pin on a removed net
	// never hashes equal to a next pin on an added net.
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

// DiffPlacement computes a name-presence diff of next against a bare base
// placement (a .pl with no netlist attached). With no base connectivity to
// compare, matched cells classify as unchanged — a rewired-but-renamed
// delta needs a design-level base (DiffDesigns) to be detected. Matched
// non-movable cells whose recorded position moved still classify as
// changed, and removed cells contribute point seeds at their recorded
// positions.
func DiffPlacement(next *db.Design, base *Placement) *Diff {
	df := &Diff{BaseCells: len(base.Order)}
	rowH := next.RowHeight()
	for i := range next.Cells {
		nc := &next.Cells[i]
		cp, ok := base.Cells[nc.Name]
		if !ok {
			df.Added = append(df.Added, i)
			if kindForDiff(nc, rowH) == db.Macro {
				df.MacroDelta = true
			}
			continue
		}
		if !nc.Movable() && (nc.Pos.X != cp.X || nc.Pos.Y != cp.Y) {
			df.Changed = append(df.Changed, i)
			if kindForDiff(nc, rowH) == db.Macro {
				df.MacroDelta = true
			}
			continue
		}
		df.Unchanged = append(df.Unchanged, i)
	}
	for _, name := range base.Order {
		if next.CellIndex(name) >= 0 {
			continue
		}
		cp := base.Cells[name]
		df.RemovedNames = append(df.RemovedNames, name)
		df.RemovedRects = append(df.RemovedRects, geom.Rect{
			Lo: geom.Point{X: cp.X, Y: cp.Y},
			Hi: geom.Point{X: cp.X, Y: cp.Y},
		})
	}
	return df
}

// kindForDiff mirrors the fingerprint's canonical kind: what matters for
// repair is whether the legalizer may move the cell as a standard cell.
func kindForDiff(c *db.Cell, rowH float64) db.CellKind {
	if c.Fixed || c.Kind == db.Terminal {
		if c.BaseW == 0 || c.BaseH == 0 {
			return db.Terminal
		}
		return db.Macro
	}
	if c.Kind == db.Macro {
		return db.Macro
	}
	if rowH > 0 && c.BaseH > rowH {
		return db.Macro
	}
	return db.StdCell
}

// sigScratch holds the key buffers the signature passes sort in place,
// reused from net to net and from design to design.
type sigScratch struct {
	keys []sigKey
}

// sigKey is one fixed-width sort key: (cell id, x bits, y bits) for a net
// pin, (x bits, y bits, pair ID) for a cell pin.
type sigKey [3]uint64

func cmpSigKey(a, b sigKey) int {
	for i := range a {
		if c := cmp.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// netSignatures hashes every net's canonical connectivity: weight (0
// hashing like the default 1, as the fingerprint does) plus the sorted
// (cell id, pin offset bits) keys, where ids come from nameIDs. Net names
// are excluded, so renaming a net changes nothing; renaming a cell changes
// its id and so the signature of every net on it.
func (sc *sigScratch) netSignatures(d *db.Design, ids []int) []uint64 {
	sigs := make([]uint64, len(d.Nets))
	for n := range d.Nets {
		net := &d.Nets[n]
		keys := sc.keys[:0]
		for _, p := range net.Pins {
			pin := &d.Pins[p]
			keys = append(keys, sigKey{uint64(ids[pin.Cell]), canonBits(pin.Offset.X), canonBits(pin.Offset.Y)})
		}
		slices.SortFunc(keys, cmpSigKey)
		w := net.Weight
		if w == 0 {
			w = 1
		}
		sigs[n] = foldKeys(fold(fold(0, math.Float64bits(w)), uint64(len(keys))), keys)
		sc.keys = keys
	}
	return sigs
}

// cellSignatures hashes every cell's repair-relevant identity: canonical
// kind, dimensions, fence (by region name id, index-independent), and the
// sorted multiset of (pin offset bits, owning-net pair ID). Position is
// deliberately excluded for movable cells — that is the solution being
// transferred, not the problem. The Fixed flag is excluded too: the full
// flow pins movable macros after legalizing them, so a placed base always
// disagrees with a fresh input on that bit; what fixedness implies is
// covered by the position check DiffDesigns applies to non-movable cells.
func (sc *sigScratch) cellSignatures(d *db.Design, pairIDs []int64, regionIDs []uint64) []uint64 {
	sigs := make([]uint64, len(d.Cells))
	rowH := d.RowHeight()
	for i := range d.Cells {
		c := &d.Cells[i]
		var region uint64
		if ri := d.CellRegion(i); ri != db.NoRegion {
			region = regionIDs[ri]
		}
		h := fold(0, uint64(kindForDiff(c, rowH)))
		h = fold(h, canonBits(c.BaseW))
		h = fold(h, canonBits(c.BaseH))
		h = fold(h, region)
		keys := sc.keys[:0]
		for _, p := range c.Pins {
			pin := &d.Pins[p]
			keys = append(keys, sigKey{canonBits(pin.Offset.X), canonBits(pin.Offset.Y), uint64(pairIDs[pin.Net])})
		}
		slices.SortFunc(keys, cmpSigKey)
		sigs[i] = foldKeys(fold(h, uint64(len(keys))), keys)
		sc.keys = keys
	}
	return sigs
}

// foldKeys folds sorted keys into h word by word.
func foldKeys(h uint64, keys []sigKey) uint64 {
	for _, k := range keys {
		h = fold(fold(fold(h, k[0]), k[1]), k[2])
	}
	return h
}

// fold mixes one word into a running 64-bit signature: xor, then the
// splitmix64 finalizer. The finalizer is a bijection, so two word
// sequences of equal length that differ in a single word never collide.
func fold(h, w uint64) uint64 {
	h ^= w
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// canonBits is the bit pattern of v with -0.0 folded onto 0.0, like the
// fingerprint's float encoder.
func canonBits(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

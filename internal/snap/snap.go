// Package snap is the placement checkpoint codec: a versioned,
// deterministic binary encoding of mid-flow placer state — cell positions
// and orientations, the current global-placement level and λ round,
// routability inflation ratios and the router's demand grid — small enough
// to write every few λ rounds and complete enough for
// core.Placer.PlaceFromCheckpoint to resume the flow and still converge to
// a legal placement.
//
// The format is pinned by golden files (testdata/v1.snap through
// testdata/v3.snap): any change to the byte layout must bump Version and
// add a new golden, never rewrite an old one. Encoders always write the
// current version; the decoder also reads every older version (v1 files
// simply have no recorded run config, v2 files record part of it). Files are written atomically (temp
// file + fsync + rename) so a crash mid-write leaves either the previous
// checkpoint or none, and every file carries a CRC32 footer so torn or
// bit-rotted checkpoints are detected on load instead of resuming from
// garbage.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/atomicfile"
)

// Magic identifies a snap checkpoint file.
const Magic = "RPSN"

// Version is the current schema version. The encoder always writes it;
// the decoder reads it and every older version.
const Version = 3

// ErrCorrupt is wrapped by decode errors caused by a damaged or truncated
// checkpoint (bad magic, short buffer, length overrun, CRC mismatch, a
// NaN or infinite float).
// Callers should treat it as "no checkpoint", not as a fatal error.
var ErrCorrupt = errors.New("snap: corrupt checkpoint")

// Stage says which phase of the placement flow the checkpoint was taken in.
type Stage uint8

const (
	// StageGP is mid global placement: λ-round state at the finest level.
	StageGP Stage = 1
	// StageRoutability is between routability iterations: the router demand
	// grid and inflation map are live.
	StageRoutability Stage = 2
)

func (s Stage) String() string {
	switch s {
	case StageGP:
		return "gp"
	case StageRoutability:
		return "routability"
	default:
		return fmt.Sprintf("Stage(%d)", uint8(s))
	}
}

// RouteState is a deep copy of the router demand grid: present demand and
// the negotiated-congestion history accumulated across rip-up rounds.
// Restoring it lets a resumed routability loop keep its pricing instead of
// re-learning congestion from scratch.
type RouteState struct {
	NX, NY                   int
	HDem, VDem, HHist, VHist []float64
}

// RunConfig records the result-shaping placer configuration the
// checkpoint was taken under (schema v2+). A resume under a different
// configuration would silently produce a placement neither run would
// have — core.ValidateResumeConfig compares this against the resuming
// config and rejects mismatches up front. Workers is recorded for
// forensics but is not binding: a resume at another worker count is
// legal, though not byte-identical.
//
// InflateMax, DPPasses and EnableChannelDerate are recorded from v3 on.
// A v2 file decodes them as zero values; InflateMax 0, which no run
// uses, marks them as not recorded.
type RunConfig struct {
	Model              string
	TargetDensity      float64
	Workers            int
	MaxLambdaRounds    int
	RoutabilityIters   int
	CongestionSource   string
	RouteLastRounds    int
	DisableRoutability bool
	DisableFences      bool
	DisableDP          bool
	DisableMultilevel  bool

	InflateMax          float64
	DPPasses            int
	EnableChannelDerate bool
}

// State is one checkpoint of the placement flow.
type State struct {
	// Design is the design name, an advisory label; Fingerprint is the
	// binding identity check (db.Design.Fingerprint at checkpoint time,
	// after any fence stripping the config asked for).
	Design      string
	Fingerprint [32]byte

	Stage Stage
	// Level is the clustering level the GP checkpoint was taken at
	// (checkpoints are only emitted at the finest level, 0).
	Level int
	// Round is the number of completed λ rounds at Level (StageGP), or the
	// total GP rounds when the checkpoint is post-GP (StageRoutability).
	Round int
	// RoutIter is the number of completed routability iterations.
	RoutIter int
	// Lambda and Mu are the density and fence multipliers to resume with.
	Lambda, Mu float64

	// X, Y are cell lower-left positions, indexed like db.Design.Cells.
	X, Y []float64
	// Orient is the per-cell orientation (db.Orient, 0..7).
	Orient []uint8
	// Inflate is the per-cell routability inflation ratio (0 or 1 = none).
	Inflate []float64

	// Route carries the router demand grid for StageRoutability
	// checkpoints; nil otherwise.
	Route *RouteState

	// Config records the run configuration the checkpoint was taken
	// under; nil when absent (v1 files, or emitters that do not stamp it).
	Config *RunConfig
}

// NumCells returns the cell count the checkpoint was taken over.
func (st *State) NumCells() int { return len(st.X) }

// Encode serializes the state in the versioned little-endian layout:
//
//	magic "RPSN" | u32 version | str design | 32B fingerprint |
//	u8 stage | u32 level | u32 round | u32 routIter | f64 λ | f64 μ |
//	u32 n | n×f64 X | n×f64 Y | n×u8 orient | n×f64 inflate |
//	u8 hasRoute [ u32 nx | u32 ny | 4×(u32 len | len×f64) ] |
//	u8 hasConfig [ str model | f64 targetDensity | u32 workers |          (v2+)
//	               u32 maxLambdaRounds | u32 routabilityIters |
//	               str congestionSource | u32 routeLastRounds | u8 flags |
//	               f64 inflateMax | u32 dpPasses ] |                       (v3+)
//	u32 crc32-IEEE of everything above
//
// flags packs the disable bits: 1 routability, 2 fences, 4 dp,
// 8 multilevel; and from v3, 16 enable channel derate.
func Encode(st *State) []byte {
	n := len(st.X)
	size := 4 + 4 + 4 + len(st.Design) + 32 + 1 + 4*3 + 8*2 + 4 + n*(8+8+1+8) + 1 + 4
	if st.Route != nil {
		size += 4*2 + 4*4 + 8*(len(st.Route.HDem)+len(st.Route.VDem)+len(st.Route.HHist)+len(st.Route.VHist))
	}
	e := encoder{buf: make([]byte, 0, size)}
	e.bytes([]byte(Magic))
	e.u32(Version)
	e.str(st.Design)
	e.bytes(st.Fingerprint[:])
	e.u8(uint8(st.Stage))
	e.u32(uint32(st.Level))
	e.u32(uint32(st.Round))
	e.u32(uint32(st.RoutIter))
	e.f64(st.Lambda)
	e.f64(st.Mu)
	e.u32(uint32(n))
	e.f64s(st.X)
	e.f64s(st.Y)
	e.bytes(st.Orient)
	e.f64s(st.Inflate)
	if st.Route == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.u32(uint32(st.Route.NX))
		e.u32(uint32(st.Route.NY))
		for _, s := range [][]float64{st.Route.HDem, st.Route.VDem, st.Route.HHist, st.Route.VHist} {
			e.u32(uint32(len(s)))
			e.f64s(s)
		}
	}
	if st.Config == nil {
		e.u8(0)
	} else {
		c := st.Config
		e.u8(1)
		e.str(c.Model)
		e.f64(c.TargetDensity)
		e.u32(uint32(c.Workers))
		e.u32(uint32(c.MaxLambdaRounds))
		e.u32(uint32(c.RoutabilityIters))
		e.str(c.CongestionSource)
		e.u32(uint32(c.RouteLastRounds))
		var flags uint8
		if c.DisableRoutability {
			flags |= 1
		}
		if c.DisableFences {
			flags |= 2
		}
		if c.DisableDP {
			flags |= 4
		}
		if c.DisableMultilevel {
			flags |= 8
		}
		if c.EnableChannelDerate {
			flags |= 16
		}
		e.u8(flags)
		e.f64(c.InflateMax)
		e.u32(uint32(c.DPPasses))
	}
	e.u32(crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// Decode parses a checkpoint produced by Encode. Damaged input yields an
// error wrapping ErrCorrupt; a valid file of a different schema version
// yields a plain version-mismatch error.
func Decode(data []byte) (*State, error) {
	if len(data) < 4+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrCorrupt, len(data))
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (have %08x, footer says %08x)", ErrCorrupt, got, want)
	}
	dec := decoder{buf: body[4:]}
	v := dec.u32()
	if v < 1 || v > Version {
		return nil, fmt.Errorf("snap: checkpoint schema version %d (this build reads 1..%d)", v, Version)
	}
	st := &State{}
	st.Design = dec.str()
	copy(st.Fingerprint[:], dec.bytes(32))
	st.Stage = Stage(dec.u8())
	st.Level = int(dec.u32())
	st.Round = int(dec.u32())
	st.RoutIter = int(dec.u32())
	st.Lambda = dec.f64()
	st.Mu = dec.f64()
	n := int(dec.u32())
	st.X = dec.f64s(n)
	st.Y = dec.f64s(n)
	st.Orient = append([]uint8(nil), dec.bytes(n)...)
	st.Inflate = dec.f64s(n)
	if dec.u8() == 1 {
		r := &RouteState{NX: int(dec.u32()), NY: int(dec.u32())}
		r.HDem = dec.f64s(int(dec.u32()))
		r.VDem = dec.f64s(int(dec.u32()))
		r.HHist = dec.f64s(int(dec.u32()))
		r.VHist = dec.f64s(int(dec.u32()))
		st.Route = r
	}
	if v >= 2 && dec.u8() == 1 {
		c := &RunConfig{}
		c.Model = dec.str()
		c.TargetDensity = dec.f64()
		c.Workers = int(dec.u32())
		c.MaxLambdaRounds = int(dec.u32())
		c.RoutabilityIters = int(dec.u32())
		c.CongestionSource = dec.str()
		c.RouteLastRounds = int(dec.u32())
		flags := dec.u8()
		c.DisableRoutability = flags&1 != 0
		c.DisableFences = flags&2 != 0
		c.DisableDP = flags&4 != 0
		c.DisableMultilevel = flags&8 != 0
		if v >= 3 {
			c.EnableChannelDerate = flags&16 != 0
			c.InflateMax = dec.f64()
			c.DPPasses = int(dec.u32())
		}
		st.Config = c
	}
	if dec.err != nil {
		return nil, dec.err
	}
	if len(dec.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(dec.buf))
	}
	if st.Stage != StageGP && st.Stage != StageRoutability {
		return nil, fmt.Errorf("%w: unknown stage %d", ErrCorrupt, st.Stage)
	}
	return st, nil
}

// WriteFile writes the checkpoint atomically (temp file + fsync +
// rename, via internal/atomicfile). Readers therefore never observe a
// partially written checkpoint.
func WriteFile(path string, st *State) error {
	return atomicfile.WriteFile(path, Encode(st), 0o644)
}

// ReadFile loads and validates a checkpoint written by WriteFile.
func ReadFile(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

type encoder struct{ buf []byte }

func (e *encoder) bytes(b []byte) { e.buf = append(e.buf, b...) }
func (e *encoder) u8(v uint8)     { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)   { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) f64s(s []float64) {
	for _, v := range s {
		e.f64(v)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf) {
		d.err = fmt.Errorf("%w: truncated (need %d bytes, have %d)", ErrCorrupt, n, len(d.buf))
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) bytes(n int) []byte { return d.take(n) }

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return d.finite(math.Float64frombits(binary.LittleEndian.Uint64(b)))
}

func (d *decoder) f64s(n int) []float64 {
	if d.err != nil || n <= 0 {
		return nil
	}
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.finite(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

// finite passes v through, recording a corruption error when it is NaN
// or infinite: no placer state is legitimately non-finite, and resuming
// from such a value would poison the whole flow.
func (d *decoder) finite(v float64) float64 {
	if d.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		d.err = fmt.Errorf("%w: non-finite float %v", ErrCorrupt, v)
	}
	return v
}

func (d *decoder) str() string {
	n := int(d.u32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

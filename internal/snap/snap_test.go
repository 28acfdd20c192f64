package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenState is a fixed checkpoint exercising every field of the current
// schema. It must never change: together with testdata/v3.snap it pins the
// byte layout of schema version 3. Its restrictions pin the older
// versions modern decoders must keep reading forever: goldenStateV2
// (without the v3 config fields) via testdata/v2.snap, and the
// Config-less goldenStateV1 via testdata/v1.snap.
func goldenState() *State {
	st := goldenStateV2()
	st.Config.InflateMax = 1.75
	st.Config.DPPasses = 3
	st.Config.EnableChannelDerate = true
	return st
}

func goldenStateV2() *State {
	st := goldenStateV1()
	st.Config = &RunConfig{
		Model:            "wa",
		TargetDensity:    0.85,
		Workers:          4,
		MaxLambdaRounds:  24,
		RoutabilityIters: 3,
		CongestionSource: "estimate",
		RouteLastRounds:  1,
		DisableFences:    true,
	}
	return st
}

func goldenStateV1() *State {
	st := &State{
		Design:   "golden",
		Stage:    StageRoutability,
		Level:    0,
		Round:    7,
		RoutIter: 2,
		Lambda:   0.015625,
		Mu:       3.5,
		X:        []float64{0, 1.5, -2.25, 1e6},
		Y:        []float64{10, 20.125, 30, -0.5},
		Orient:   []uint8{0, 1, 5, 7},
		Inflate:  []float64{1, 1, 1.21, 1},
		Route: &RouteState{
			NX: 2, NY: 2,
			HDem:  []float64{0, 1, 2, 3},
			VDem:  []float64{3, 2, 1, 0},
			HHist: []float64{0.5, 0, 0, 0.5},
			VHist: []float64{0, 0.25, 0.25, 0},
		},
	}
	for i := range st.Fingerprint {
		st.Fingerprint[i] = byte(i)
	}
	return st
}

func TestGolden(t *testing.T) {
	path := filepath.Join("testdata", "v3.snap")
	got := Encode(goldenState())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding of the golden state changed (%d bytes vs %d golden).\n"+
			"The v3 schema is frozen: bump Version and add a new golden instead.",
			len(got), len(want))
	}
	st, err := Decode(want)
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if !reflect.DeepEqual(st, goldenState()) {
		t.Errorf("golden decode mismatch:\n got %+v\nwant %+v", st, goldenState())
	}
}

// Checkpoints written by v2 builds must stay readable forever: the frozen
// testdata/v2.snap (never regenerated) decodes to the golden state without
// the v3 config fields.
func TestGoldenV2Decode(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "v2.snap"))
	if err != nil {
		t.Fatalf("frozen v2 golden missing: %v", err)
	}
	st, err := Decode(want)
	if err != nil {
		t.Fatalf("decode v2 golden: %v", err)
	}
	if !reflect.DeepEqual(st, goldenStateV2()) {
		t.Errorf("v2 golden decode mismatch:\n got %+v\nwant %+v", st, goldenStateV2())
	}
}

// Checkpoints written by v1 builds must stay readable forever: the frozen
// testdata/v1.snap (never regenerated) decodes to the golden state with no
// recorded config.
func TestGoldenV1Decode(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "v1.snap"))
	if err != nil {
		t.Fatalf("frozen v1 golden missing: %v", err)
	}
	st, err := Decode(want)
	if err != nil {
		t.Fatalf("decode v1 golden: %v", err)
	}
	if st.Config != nil {
		t.Errorf("v1 checkpoint decoded with a config section: %+v", st.Config)
	}
	if !reflect.DeepEqual(st, goldenStateV1()) {
		t.Errorf("v1 golden decode mismatch:\n got %+v\nwant %+v", st, goldenStateV1())
	}
}

func TestRoundTrip(t *testing.T) {
	cases := []*State{
		goldenState(),
		{Design: "", Stage: StageGP},
		{
			Design: "gp-only", Stage: StageGP, Round: 3, Lambda: 2e-6, Mu: 0,
			X: []float64{1}, Y: []float64{2}, Orient: []uint8{4}, Inflate: []float64{1},
		},
	}
	for _, want := range cases {
		got, err := Decode(Encode(want))
		if err != nil {
			t.Fatalf("%s: %v", want.Design, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", want.Design, got, want)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	good := Encode(goldenState())

	check := func(name string, data []byte) {
		t.Helper()
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	check("empty", nil)
	check("short", good[:8])
	check("truncated", good[:len(good)-5])

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	check("bit flip", flipped)

	magic := append([]byte(nil), good...)
	copy(magic, "NOPE")
	check("bad magic", magic)

	// Claim more cells than the buffer holds, with a fixed-up CRC: the
	// length check must catch it, not a slice panic.
	huge := append([]byte(nil), good...)
	off := 4 + 4 + 4 + len("golden") + 32 + 1 + 12 + 16 // offset of the cell count
	binary.LittleEndian.PutUint32(huge[off:], 1<<30)
	binary.LittleEndian.PutUint32(huge[len(huge)-4:], crc32.ChecksumIEEE(huge[:len(huge)-4]))
	check("huge count", huge)
}

func TestDecodeVersionMismatch(t *testing.T) {
	data := Encode(goldenState())
	binary.LittleEndian.PutUint32(data[4:], 99)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	_, err := Decode(data)
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want a version-mismatch error distinct from ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "version 99") {
		t.Errorf("err = %v, want mention of version 99", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.snap")
	want := goldenState()
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("file round trip mismatch")
	}

	// Overwrite with a newer checkpoint; no temp files may be left behind.
	want.Round = 9
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 9 {
		t.Errorf("Round = %d after overwrite, want 9", got.Round)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after atomic writes, want 1", len(entries))
	}

	if _, err := ReadFile(filepath.Join(dir, "missing.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file err = %v, want ErrNotExist", err)
	}
}

// Every float of a checkpoint must be finite: a NaN coordinate or an
// infinite multiplier is corruption, not a state to resume from.
func TestDecodeRejectsNonFinite(t *testing.T) {
	for name, edit := range map[string]func(st *State, v float64){
		"lambda":         func(st *State, v float64) { st.Lambda = v },
		"mu":             func(st *State, v float64) { st.Mu = v },
		"x":              func(st *State, v float64) { st.X[1] = v },
		"y":              func(st *State, v float64) { st.Y[3] = v },
		"inflate":        func(st *State, v float64) { st.Inflate[2] = v },
		"route demand":   func(st *State, v float64) { st.Route.VHist[0] = v },
		"target density": func(st *State, v float64) { st.Config.TargetDensity = v },
		"inflate max":    func(st *State, v float64) { st.Config.InflateMax = v },
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			st := goldenState()
			edit(st, v)
			if _, err := Decode(Encode(st)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s = %v: err = %v, want ErrCorrupt", name, v, err)
			}
		}
	}
}

// FuzzDecode mutates checkpoint bodies and rewrites the CRC footer
// behind each, so inputs get past the checksum into the field parsers.
// Decode must return an error, or a state whose floats are all finite,
// whose per-cell slices hold the cell count the body declares, and which
// survives a re-encode unchanged. It must never panic.
func FuzzDecode(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.snap"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed checkpoints: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := Decode(data); err != nil {
			f.Fatalf("seed %s: %v", path, err)
		}
		f.Add(data[:len(data)-4])
	}
	fresh := Encode(goldenState())
	f.Add(fresh[:len(fresh)-4])

	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		st, err := Decode(data)
		if err != nil {
			return
		}
		off := 4 + 4 + 4 + len(st.Design) + 32 + 1 + 12 + 16 // the cell count
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if len(st.X) != n || len(st.Y) != n || len(st.Orient) != n || len(st.Inflate) != n {
			t.Fatalf("body declares %d cells, state holds X %d Y %d orient %d inflate %d",
				n, len(st.X), len(st.Y), len(st.Orient), len(st.Inflate))
		}
		floats := [][]float64{st.X, st.Y, st.Inflate, {st.Lambda, st.Mu}}
		if r := st.Route; r != nil {
			floats = append(floats, r.HDem, r.VDem, r.HHist, r.VHist)
		}
		if c := st.Config; c != nil {
			floats = append(floats, []float64{c.TargetDensity, c.InflateMax})
		}
		for _, fs := range floats {
			for _, v := range fs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("decoded a non-finite float %v", v)
				}
			}
		}
		again, err := Decode(Encode(st))
		if err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("re-encoded state does not decode back: %v", err)
		}
	})
}

package gen

import "math"

// Suite returns the reproduction benchmark suite sb-a … sb-e: five
// synthetic hierarchical mixed-size designs of increasing size, standing
// in for the proprietary DAC-2012 superblue designs (see DESIGN.md §2).
// Utilization and macro counts rise with size so that the larger designs
// are also the more congestion-prone ones, matching the contest suite's
// character.
func Suite() []Config {
	return []Config{
		{
			Name: "sb-a", Seed: 101,
			NumStdCells: 2000, NumFixedMacros: 4, NumMovableMacros: 2,
			MacroSizeRows: 6, NumModules: 6, NumFences: 4, NumTerminals: 32,
			TargetUtil: 0.65, LocalityWindow: 0.05, GlobalFrac: 0.12, TrackCapacity: 64,
		},
		{
			Name: "sb-b", Seed: 202,
			NumStdCells: 5000, NumFixedMacros: 6, NumMovableMacros: 3,
			MacroSizeRows: 8, NumModules: 8, NumFences: 5, NumTerminals: 48,
			TargetUtil: 0.70, LocalityWindow: 0.02, GlobalFrac: 0.08, TrackCapacity: 80,
		},
		{
			Name: "sb-c", Seed: 303,
			NumStdCells: 10000, NumFixedMacros: 8, NumMovableMacros: 4,
			MacroSizeRows: 10, NumModules: 10, NumFences: 6, NumTerminals: 64,
			TargetUtil: 0.72, LocalityWindow: 0.01, GlobalFrac: 0.05, TrackCapacity: 96,
		},
		{
			Name: "sb-d", Seed: 404,
			NumStdCells: 20000, NumFixedMacros: 10, NumMovableMacros: 5,
			MacroSizeRows: 12, NumModules: 12, NumFences: 8, NumTerminals: 96,
			TargetUtil: 0.75, LocalityWindow: 0.005, GlobalFrac: 0.035, TrackCapacity: 112,
		},
		{
			Name: "sb-e", Seed: 505,
			NumStdCells: 40000, NumFixedMacros: 12, NumMovableMacros: 6,
			MacroSizeRows: 14, NumModules: 16, NumFences: 10, NumTerminals: 128,
			TargetUtil: 0.78, LocalityWindow: 0.0025, GlobalFrac: 0.022, TrackCapacity: 128,
		},
	}
}

// SmallSuite returns shrunken versions of the suite for fast tests and CI.
func SmallSuite() []Config {
	out := Suite()[:3]
	for i := range out {
		out[i].NumStdCells /= 10
		out[i].NumTerminals /= 2
		out[i].NumFixedMacros = 2 + i
		out[i].NumMovableMacros = 1
		out[i].NumModules = 3 + i
		out[i].NumFences = 2
	}
	return out
}

// Congested returns a deliberately congestion-prone configuration: high
// utilization, dense module-local wiring, and large blocking macros. The
// track capacity scales with the design size so that the wirelength-driven
// baseline lands in the heavily-but-not-hopelessly congested band (RC
// roughly 150–250) where placement-side congestion relief has room to act.
// Used by the routability experiments (T2 companion, F6, T10, T11).
func Congested(cells int, seed int64) Config {
	cap := 20 * math.Sqrt(float64(cells)/400)
	if cap < 20 {
		cap = 20
	}
	return Config{
		Name: "congested", Seed: seed,
		NumStdCells: cells, NumFixedMacros: 5, NumMovableMacros: 1,
		MacroSizeRows: 10, NumModules: 4, NumFences: 2, NumTerminals: 48,
		TargetUtil: 0.72, LocalityWindow: 0.02, TrackCapacity: cap,
	}
}

// Builtin resolves a built-in benchmark name, as the placer CLI's -synth
// and placerd's synth jobs accept it: sb-a … sb-e from Suite, or
// "congested", which is Congested(2000, 1). A nonzero seed replaces the
// default one.
func Builtin(name string, seed int64) (Config, bool) {
	for _, cfg := range Suite() {
		if cfg.Name == name {
			if seed != 0 {
				cfg.Seed = seed
			}
			return cfg, true
		}
	}
	if name == "congested" {
		if seed == 0 {
			seed = 1
		}
		return Congested(2000, seed), true
	}
	return Config{}, false
}

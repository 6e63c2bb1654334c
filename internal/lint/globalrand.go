package lint

import "go/ast"

// globalRandFuncs are the math/rand top-level functions backed by the
// shared, process-global source. Concurrent workers interleave draws on
// that source nondeterministically, so any result derived from it varies
// with scheduling — the exact failure mode the study's worker-count
// invariance forbids.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions, should the module ever migrate.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// GlobalrandCheck forbids the process-global math/rand source and
// clock-seeded generators. Every random draw in the simulation must come
// from a *rand.Rand threaded from the run's seed so that results are a
// pure function of configuration.
var GlobalrandCheck = &Check{
	Name: "globalrand",
	Doc:  "forbid package-level math/rand functions and clock-seeded rand.New; thread a seeded *rand.Rand",
	Run:  runGlobalrand,
}

func runGlobalrand(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name, ok := pkgFunc(p.Pkg.Info, call)
			if !ok || (pkg != "math/rand" && pkg != "math/rand/v2") {
				return true
			}
			if globalRandFuncs[name] {
				p.Reportf(call.Pos(),
					"rand.%s draws from the process-global source, which interleaves across workers nondeterministically; thread a seeded *rand.Rand instead", name)
				return true
			}
			if name == "New" && len(call.Args) == 1 {
				// A seeded rand.New is allowed — unless the seed
				// expression itself reads the clock.
				if containsCallTo(p.Pkg.Info, call.Args[0], "time", "Now") {
					p.Reportf(call.Pos(),
						"rand.New seeded from the wall clock is nondeterministic; derive the seed from the run configuration")
				}
			}
			return true
		})
	}
}

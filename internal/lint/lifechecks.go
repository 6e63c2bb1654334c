package lint

import (
	"go/ast"
)

// The five lifecycle checks ride the shared lifeState (lifeflow.go):
// closeleak, bodyclose, cancelleak, and tickleak report resources the
// must-release dataflow proves can reach function exit unreleased;
// deferhot flags defers inside loops on //detlint:hotpath-reachable
// functions. Both read hot-path reachability from the call graph
// (hotState in callgraph.go).

// CloseleakCheck reports files, connections, listeners, and trace
// recorders that may escape their function unreleased.
var CloseleakCheck = &Check{
	Name: "closeleak",
	Doc: "closeleak reports os.Open/os.Create files, net.Dial/net.Listen " +
		"connections, and trace recorders that are not closed (or handed off) " +
		"on every path; a long-running service bleeds descriptors otherwise.",
	Run: runLifecycle("closeleak"),
}

// BodycloseCheck reports *http.Response bodies that may never be closed.
var BodycloseCheck = &Check{
	Name: "bodyclose",
	Doc: "bodyclose reports http response bodies that are not closed on " +
		"every path; an unclosed body pins its connection and defeats " +
		"keep-alive reuse, which is fatal for a measurement loop at scale.",
	Run: runLifecycle("bodyclose"),
}

// CancelleakCheck reports context cancel functions and profiling stop
// functions that may never be called.
var CancelleakCheck = &Check{
	Name: "cancelleak",
	Doc: "cancelleak reports context.WithCancel/WithTimeout/WithDeadline " +
		"cancel functions and profiling stop functions that are not called " +
		"on every path; each leaks a goroutine or an open profile until " +
		"process exit.",
	Run: runLifecycle("cancelleak"),
}

// TickleakCheck reports tickers and timers that may never be stopped.
var TickleakCheck = &Check{
	Name: "tickleak",
	Doc: "tickleak reports time.NewTicker/time.NewTimer values that are " +
		"not stopped (or, for timers, drained) on every path; an unstopped " +
		"ticker keeps its goroutine and channel alive forever.",
	Run: runLifecycle("tickleak"),
}

// DeferhotCheck reports defers inside loops on hot-path functions.
var DeferhotCheck = &Check{
	Name: "deferhot",
	Doc: "deferhot reports defer statements inside loops in functions " +
		"reachable from a //detlint:hotpath entry: the deferred calls pile " +
		"up until function return, so per-iteration resources are released " +
		"late (or never, for server loops). Hoist the defer or release " +
		"explicitly at the end of the iteration.",
	Run: runDeferhot,
}

// runLifecycle builds a Run function reporting the leaks one check owns.
func runLifecycle(check string) func(*Pass) {
	return func(p *Pass) {
		life := p.Graph.lifeState()
		hot := p.Graph.hotState()
		for _, n := range p.Graph.Nodes() {
			if n.Pkg != p.Pkg {
				continue
			}
			for _, r := range life.resources[n] {
				if r.spec.check != check {
					continue
				}
				var msg string
				switch {
				case r.immediate == "discarded":
					msg = r.spec.kind + " from " + r.src +
						" is discarded: the result is never bound, so it can never be released (want " +
						r.spec.release + ")"
				case r.leaked:
					name := r.name
					if name == "" {
						name = r.spec.kind
					}
					msg = r.spec.kind + " " + name + " from " + r.src +
						" may not be released on every path (want " + r.spec.release + ")"
				default:
					continue
				}
				if hot.isHot(n) {
					msg += "; hot path: " + hot.hotChain(n)
				}
				p.Reportf(r.pos, "%s", msg)
			}
		}
	}
}

// runDeferhot walks hot functions looking for defers lexically inside a
// loop of their own (innermost) function body — a defer in a closure
// that is itself the loop body runs per iteration and is fine.
func runDeferhot(p *Pass) {
	st := p.Graph.hotState()
	for _, n := range p.Graph.Nodes() {
		if n.Pkg != p.Pkg || !st.isHot(n) {
			continue
		}
		chain := st.hotChain(n)
		var walk func(node ast.Node, loopDepth int)
		walk = func(node ast.Node, loopDepth int) {
			switch s := node.(type) {
			case nil:
				return
			case *ast.FuncLit:
				walk(s.Body, 0) // fresh defer scope
				return
			case *ast.ForStmt:
				walk(s.Init, loopDepth)
				walk(s.Cond, loopDepth)
				walk(s.Post, loopDepth+1)
				walk(s.Body, loopDepth+1)
				return
			case *ast.RangeStmt:
				walk(s.X, loopDepth)
				walk(s.Body, loopDepth+1)
				return
			case *ast.DeferStmt:
				if loopDepth > 0 {
					p.Reportf(s.Pos(),
						"defer inside a loop on a hot path runs at function return, not per iteration; hoist it or release explicitly; hot path: %s",
						chain)
				}
				walk(s.Call, loopDepth)
				return
			}
			// Generic descent one level at a time so loopDepth is scoped.
			var kids []ast.Node
			ast.Inspect(node, func(c ast.Node) bool {
				if c == nil {
					return false
				}
				if c == node {
					return true
				}
				kids = append(kids, c)
				return false
			})
			for _, k := range kids {
				walk(k, loopDepth)
			}
		}
		walk(n.Decl.Body, 0)
	}
}

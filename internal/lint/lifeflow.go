package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the lifeflow layer: a must-release dataflow over the
// per-function CFGs (cfg.go), shared by the closeleak/bodyclose/tickleak
// checks and the lifecycle report. Context cancel funcs are not in the
// acquire table: go vet's lostcancel owns them. The pipeline:
//
//  1. A no-return fixpoint over the module: a function whose CFG cannot
//     reach its Exit block (every path panics or exits the process) is
//     terminating, and calls to it route to Halt in its callers' CFGs.
//  2. Bottom-up closer summaries over the call graph: for each function,
//     which operands (receiver, parameters) it releases, returns, or
//     stores. Passing a resource to such a callee transfers ownership.
//  3. Per function (and per function literal — each literal body is its
//     own control-flow universe): match calls against the acquire table,
//     bind each resource to its variable (plus flow-insensitive aliases
//     and the paired error variable), and run a forward "may reach exit
//     unreleased" dataflow — the complement of must-release, so a
//     resource is flagged exactly when some path leaks it.
//
// Release events kill a resource: a Close/Stop call (direct or
// deferred), calling a stop function value, Body.Close on an
// http response, a receive from a timer's C, returning or storing the
// value, passing it to a consuming callee, or handing it to a
// goroutine or escaping closure (ownership moved — the intraprocedural
// analysis cannot follow it, so it stays quiet). Branch conditions on
// the paired error variable prune the nil-resource path: after
// `v, err := acquire()`, the `err != nil` edge kills v.
//
// The analysis is deliberately quiet-biased: unknown callees do not
// release (io.ReadAll does not close the body), but every ownership
// transfer does. Soundness caveats — reflection, finalizers,
// conditional ownership through wrapper returns — are documented in
// DESIGN.md.

// acquireSpec is one row of the acquire table: how a call produces a
// resource and what counts as releasing it.
type acquireSpec struct {
	check   string // reporting check: closeleak, bodyclose, tickleak
	kind    string // human kind: "file", "ticker", "response body", ...
	result  int    // index of the result value carrying the resource
	release string // human description of the expected release

	closeMethods []string // methods on the value that release it
	callValue    bool     // calling the value itself releases (stop funcs)
	bodyClose    bool     // v.Body.Close() releases (http responses)
	recvC        bool     // a receive from v.C releases (timers)
	consumers    []string // callee names that consume v passed as an argument
}

// matchAcquire resolves a call against the acquire table.
func matchAcquire(info *types.Info, call *ast.CallExpr) (acquireSpec, bool) {
	if pkg, name, ok := pkgFunc(info, call); ok {
		switch pkg {
		case "os":
			switch name {
			case "Open", "Create", "OpenFile", "CreateTemp":
				return acquireSpec{check: "closeleak", kind: "file", result: 0,
					closeMethods: []string{"Close"}, release: "Close"}, true
			}
		case "net":
			switch name {
			case "Dial", "DialTimeout", "DialTCP", "DialUDP", "DialUnix", "DialIP":
				return acquireSpec{check: "closeleak", kind: "connection", result: 0,
					closeMethods: []string{"Close"}, release: "Close"}, true
			case "Listen", "ListenTCP", "ListenUDP", "ListenUnix", "ListenPacket", "ListenIP":
				return acquireSpec{check: "closeleak", kind: "listener", result: 0,
					closeMethods: []string{"Close"}, release: "Close"}, true
			}
		case "time":
			switch name {
			case "NewTicker":
				return acquireSpec{check: "tickleak", kind: "ticker", result: 0,
					closeMethods: []string{"Stop"}, release: "Stop"}, true
			case "NewTimer":
				return acquireSpec{check: "tickleak", kind: "timer", result: 0,
					closeMethods: []string{"Stop"}, recvC: true,
					release: "Stop (or draining C)"}, true
			}
		case "repro/internal/profiling":
			switch name {
			case "StartCPU":
				return acquireSpec{check: "closeleak", kind: "profile stop function", result: 0,
					callValue: true, release: "a call to the stop function"}, true
			}
		}
	}
	if recv, name, ok := methodCall(info, call); ok {
		if namedIn(recv, "repro/internal/trace", "Tracer") && name == "Recorder" {
			return acquireSpec{check: "closeleak", kind: "trace recorder", result: 0,
				consumers: []string{"Merge"}, release: "Tracer.Merge"}, true
		}
	}
	if idx, ok := httpResponseResult(info, call); ok {
		return acquireSpec{check: "bodyclose", kind: "response body", result: idx,
			bodyClose: true, release: "Body.Close"}, true
	}
	return acquireSpec{}, false
}

// httpResponseResult finds the *net/http.Response among a call's
// results — the ownership convention for response bodies holds for any
// producer, stdlib or module.
func httpResponseResult(info *types.Info, call *ast.CallExpr) (int, bool) {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil || tv.IsType() {
		return 0, false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if namedIn(tuple.At(i).Type(), "net/http", "Response") {
				return i, true
			}
		}
		return 0, false
	}
	if namedIn(tv.Type, "net/http", "Response") {
		return 0, true
	}
	return 0, false
}

// stdlibConsumer reports whether a known stdlib callee takes ownership
// of its argument at the given index (the body handed to an http
// request is closed by the transport; NopCloser wraps and returns).
func stdlibConsumer(info *types.Info, call *ast.CallExpr, argIdx int) bool {
	pkg, name, ok := pkgFunc(info, call)
	if !ok {
		return false
	}
	switch {
	case pkg == "net/http" && name == "NewRequest":
		return argIdx == 2
	case pkg == "net/http" && name == "NewRequestWithContext":
		return argIdx == 3
	case pkg == "io" && name == "NopCloser":
		return argIdx == 0
	}
	return false
}

// resource is one tracked acquisition inside a function (or literal).
type resource struct {
	spec acquireSpec
	pos  token.Pos
	name string // bound variable name, "" when unnamed
	src  string // rendered acquire callee, e.g. "os.Open", "client.Do"

	vars     map[types.Object]bool // binding variable plus aliases
	bodyVars map[types.Object]bool // aliases of v.Body (responses)
	errVar   types.Object          // paired error result variable

	bit       uint64
	reasons   map[string]bool // how paths disposed of it
	leaked    bool            // live on some path reaching Exit
	immediate string          // "discarded" when the result is never bound
}

// outcome summarizes the resource's fate for the lifecycle report.
func (r *resource) outcome() string {
	if r.immediate != "" {
		return r.immediate
	}
	if r.leaked {
		return "leaked"
	}
	for _, k := range []string{"deferred", "released", "received", "consumed",
		"returned", "stored", "goroutine", "captured"} {
		if r.reasons[k] {
			return k
		}
	}
	return "process-exit"
}

// lifeState is the module-wide lifecycle analysis, computed once per
// graph and shared by the lifecycle checks and the leak report.
type lifeState struct {
	noret     map[*types.Func]bool
	summary   map[*types.Func]uint64 // bit 0: receiver, bit i: param i-1
	resources map[*FuncNode][]*resource
}

// lifeState computes (once) the no-return set, the closer summaries,
// and the per-function must-release results. Every sweep iterates
// g.sorted, so the result is a pure function of the graph.
func (g *Graph) lifeState() *lifeState {
	if g.life != nil {
		return g.life
	}
	st := &lifeState{
		noret:     make(map[*types.Func]bool),
		summary:   make(map[*types.Func]uint64),
		resources: make(map[*FuncNode][]*resource),
	}

	// 1. No-return fixpoint: the set only grows, so iterate until
	// stable. CFGs are rebuilt each round; the final round's graphs are
	// consistent with the final set.
	for changed := true; changed; {
		changed = false
		for _, n := range g.sorted {
			if st.noret[n.Fn] {
				continue
			}
			cfg := BuildCFG(n.Decl.Body, n.Pkg.Info, st.noret)
			if !cfg.ExitReachable() {
				st.noret[n.Fn] = true
				changed = true
			}
		}
	}

	// 2. Closer summaries, bottom-up to a fixpoint (masks only grow).
	analyses := make(map[*FuncNode]*lifeAnalysis, len(g.sorted))
	for _, n := range g.sorted {
		analyses[n] = newLifeAnalysis(n, g, st)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.sorted {
			mask := analyses[n].summarize()
			if mask != st.summary[n.Fn] {
				st.summary[n.Fn] = mask
				changed = true
			}
		}
	}

	// 3. Per-function (and per-literal) must-release dataflow.
	for _, n := range g.sorted {
		st.resources[n] = analyses[n].run()
	}
	g.life = st
	return st
}

// lifeAnalysis is the per-function scaffolding: parent links, resolved
// call-site targets, and the function's analysis contexts (the declared
// body plus every function literal, each its own control-flow universe).
type lifeAnalysis struct {
	n       *FuncNode
	g       *Graph
	st      *lifeState
	info    *types.Info
	parents map[ast.Node]ast.Node
	callees map[token.Pos][]*FuncNode
	lits    []*ast.FuncLit
}

func newLifeAnalysis(n *FuncNode, g *Graph, st *lifeState) *lifeAnalysis {
	la := &lifeAnalysis{
		n:       n,
		g:       g,
		st:      st,
		info:    n.Pkg.Info,
		parents: make(map[ast.Node]ast.Node),
		callees: make(map[token.Pos][]*FuncNode),
	}
	var stack []ast.Node
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			la.parents[node] = stack[len(stack)-1]
		}
		stack = append(stack, node)
		if lit, ok := node.(*ast.FuncLit); ok {
			la.lits = append(la.lits, lit)
		}
		return true
	})
	for _, cs := range n.Calls {
		la.callees[cs.Pos] = append(la.callees[cs.Pos], cs.Callee)
	}
	return la
}

// summarize computes the operand-release mask for the closer-summary
// fixpoint: bit 0 set when the receiver is released/consumed somewhere
// in the body, bit i for parameter i-1. Any disposal counts — a callee
// that closes, returns, stores, or hands off its argument owns it.
func (la *lifeAnalysis) summarize() uint64 {
	sig := la.n.Fn.Type().(*types.Signature)
	var mask uint64
	probe := func(v *types.Var, bit int) {
		if v == nil || bit >= 64 {
			return
		}
		r := &resource{
			spec: acquireSpec{
				closeMethods: []string{"Close", "Stop"},
				callValue:    true,
				bodyClose:    true,
				recvC:        true,
			},
			vars:     map[types.Object]bool{v: true},
			bodyVars: map[types.Object]bool{},
		}
		la.collectAliases(la.n.Decl.Body, r)
		found := false
		ast.Inspect(la.n.Decl.Body, func(node ast.Node) bool {
			if found {
				return false
			}
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := la.info.Uses[id]; obj == nil || !r.vars[obj] && !r.bodyVars[obj] {
				return true
			}
			switch la.classify(id, r) {
			case "release", "received", "consumed", "returned", "stored", "goroutine":
				found = true
			}
			return true
		})
		if found {
			mask |= 1 << uint(bit)
		}
	}
	probe(sig.Recv(), 0)
	for i := 0; i < sig.Params().Len(); i++ {
		probe(sig.Params().At(i), i+1)
	}
	return mask
}

// calleeReleases reports whether passing a value as operand opIdx of
// this call transfers ownership: a module callee whose summary releases
// that operand, a spec-listed consumer method, or a known stdlib
// consumer. Operand 0 is the receiver; arguments start at 1.
func (la *lifeAnalysis) calleeReleases(call *ast.CallExpr, opIdx int, spec acquireSpec) bool {
	if opIdx >= 1 && stdlibConsumer(la.info, call, opIdx-1) {
		return true
	}
	if len(spec.consumers) > 0 {
		name := ""
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		}
		for _, c := range spec.consumers {
			if name == c {
				return true
			}
		}
	}
	if opIdx >= 64 {
		return false
	}
	for _, callee := range la.callees[call.Pos()] {
		if la.st.summary[callee.Fn]&(1<<uint(opIdx)) != 0 {
			return true
		}
	}
	return false
}

// classify decides how one identifier use treats a tracked resource:
//
//	"release"   — Close/Stop/stop-call/Body.Close on the value
//	"received"  — a receive (or range) over the value's C channel
//	"consumed"  — passed to a callee that takes ownership
//	"returned"  — the value (or its Body) is returned
//	"stored"    — written to heap memory, a composite, or a channel
//	"goroutine" — handed to a go statement
//	"none"      — a plain use that neither releases nor transfers
func (la *lifeAnalysis) classify(id *ast.Ident, r *resource) string {
	obj := la.info.Uses[id]
	isBody := obj != nil && r.bodyVars[obj]
	if p, ok := la.parents[id].(*ast.SelectorExpr); ok && p.X == id {
		sel := p.Sel.Name
		if call, ok := la.parents[p].(*ast.CallExpr); ok && call.Fun == p {
			// v.Close() / v.Stop() — or body.Close() on a Body alias.
			for _, m := range r.spec.closeMethods {
				if sel == m {
					return "release"
				}
			}
			if isBody && sel == "Close" {
				return "release"
			}
			// v as the receiver of a consuming module method.
			if la.calleeReleases(call, 0, r.spec) {
				return "consumed"
			}
			return "none" // plain method use (Read, Name, ...)
		}
		if r.spec.bodyClose && sel == "Body" {
			// resp.Body.Close()
			if p2, ok := la.parents[p].(*ast.SelectorExpr); ok && p2.Sel.Name == "Close" {
				if call, ok := la.parents[p2].(*ast.CallExpr); ok && call.Fun == p2 {
					return "release"
				}
			}
			// resp.Body flowing as a value: classify the selector itself.
			return la.classifyValue(p, r)
		}
		if r.spec.recvC && sel == "C" {
			if u, ok := la.parents[p].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return "received"
			}
			if _, ok := la.parents[p].(*ast.RangeStmt); ok {
				return "received"
			}
		}
		return "none" // other field/method selection
	}
	if call, ok := la.parents[id].(*ast.CallExpr); ok && call.Fun == id {
		if r.spec.callValue {
			return "release"
		}
		return "none"
	}
	return la.classifyValue(id, r)
}

// classifyValue walks up from a value use to the consuming statement.
func (la *lifeAnalysis) classifyValue(e ast.Node, r *resource) string {
	cur := e
	for {
		p := la.parents[cur]
		if p == nil {
			return "none"
		}
		switch pp := p.(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return "stored"
		case *ast.UnaryExpr:
			if pp.Op == token.AND {
				cur = p
				continue
			}
			return "none"
		case *ast.CallExpr:
			if pp.Fun == cur {
				return "none"
			}
			if tv, ok := la.info.Types[pp.Fun]; ok && tv.IsType() {
				cur = p // conversion: the value flows through
				continue
			}
			if builtinName(la.info, pp.Fun) == "append" {
				return "stored"
			}
			for i, a := range pp.Args {
				if a == cur {
					if la.calleeReleases(pp, i+1, r.spec) {
						return "consumed"
					}
					return "none"
				}
			}
			return "none"
		case *ast.ReturnStmt:
			return "returned"
		case *ast.SendStmt:
			if pp.Value == cur {
				return "stored"
			}
			return "none"
		case *ast.GoStmt:
			return "goroutine"
		case *ast.AssignStmt:
			for i, rhs := range pp.Rhs {
				if rhs != cur {
					continue
				}
				if len(pp.Lhs) != len(pp.Rhs) {
					return "stored"
				}
				if la.localLHS(pp.Lhs[i]) {
					return "none" // alias to a local, tracked by collectAliases
				}
				return "stored"
			}
			return "none" // on the Lhs: a write target, not a value use
		case *ast.ValueSpec:
			for i := range pp.Values {
				if pp.Values[i] != cur {
					continue
				}
				if i < len(pp.Names) && len(pp.Names) == len(pp.Values) {
					return "none" // alias to a local declaration
				}
				return "stored"
			}
			return "none"
		case *ast.IndexExpr:
			if pp.X == cur {
				return "none" // indexing the value, not storing it
			}
			return "none"
		default:
			return "none"
		}
	}
}

// localLHS reports whether an assignment destination is a plain local
// variable (an alias binding rather than a heap store).
func (la *lifeAnalysis) localLHS(lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true // discarding is not a store
	}
	obj := la.info.Defs[id]
	if obj == nil {
		obj = la.info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	return ok && v.Pos() >= la.n.Decl.Pos() && v.Pos() <= la.n.Decl.End()
}

// collectAliases adds flow-insensitive aliases of the resource inside
// body: `x := v` tracks x, and for responses `b := v.Body` tracks b as
// a Body alias (so b.Close() releases).
func (la *lifeAnalysis) collectAliases(body ast.Node, r *resource) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(node ast.Node) bool {
			as, ok := node.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Rhs {
				lhsID, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok || lhsID.Name == "_" {
					continue
				}
				lhsObj := la.info.Defs[lhsID]
				if lhsObj == nil {
					lhsObj = la.info.Uses[lhsID]
				}
				if lhsObj == nil {
					continue
				}
				switch rhs := ast.Unparen(as.Rhs[i]).(type) {
				case *ast.Ident:
					if obj := la.info.Uses[rhs]; obj != nil && r.vars[obj] && !r.vars[lhsObj] {
						r.vars[lhsObj] = true
						changed = true
					}
				case *ast.SelectorExpr:
					if !r.spec.bodyClose || rhs.Sel.Name != "Body" {
						continue
					}
					if x, ok := rhs.X.(*ast.Ident); ok {
						if obj := la.info.Uses[x]; obj != nil && r.vars[obj] && !r.bodyVars[lhsObj] {
							r.bodyVars[lhsObj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}
}

// lifeEvent is one state transition inside a block, in source order.
type lifeEvent struct {
	res  *resource
	kind string // "acquire", or a kill: "released","deferred","received","consumed","returned","stored","goroutine","captured"
}

// run analyzes every context of the function — the declared body plus
// each literal body — and returns the tracked resources sorted by
// acquire position.
func (la *lifeAnalysis) run() []*resource {
	var all []*resource
	all = append(all, la.runContext(la.n.Decl.Body, la.n.Decl)...)
	for _, lit := range la.lits {
		all = append(all, la.runContext(lit.Body, lit)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	return all
}

// runContext runs the must-release dataflow over one function body.
func (la *lifeAnalysis) runContext(body *ast.BlockStmt, owner ast.Node) []*resource {
	resources := la.collectAcquires(body, owner)
	if len(resources) == 0 {
		return nil
	}
	var tracked []*resource
	for _, r := range resources {
		if r.immediate == "" {
			if len(tracked) < 64 {
				r.bit = 1 << uint(len(tracked))
				tracked = append(tracked, r)
			} else {
				r.immediate = "untracked" // beyond the 64-bit set: reported as such, never as a leak
			}
		}
	}
	if len(tracked) > 0 {
		cfg := BuildCFG(body, la.info, la.st.noret)
		events := la.blockEvents(cfg, tracked, owner)
		la.solve(cfg, events, tracked)
	}
	return resources
}

// collectAcquires matches the acquire table against every call in the
// context (literal bodies belong to their own context) and binds each
// resource to its variable and paired error variable.
func (la *lifeAnalysis) collectAcquires(body *ast.BlockStmt, owner ast.Node) []*resource {
	var out []*resource
	ast.Inspect(body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		spec, ok := matchAcquire(la.info, call)
		if !ok {
			return true
		}
		r := &resource{
			spec:     spec,
			pos:      call.Pos(),
			src:      exprDesc(call.Fun),
			vars:     make(map[types.Object]bool),
			bodyVars: make(map[types.Object]bool),
		}
		parent := la.parents[call]
		for {
			if _, ok := parent.(*ast.ParenExpr); !ok {
				break
			}
			parent = la.parents[parent]
		}
		switch p := parent.(type) {
		case *ast.AssignStmt:
			if len(p.Rhs) == 1 && ast.Unparen(p.Rhs[0]) == call {
				// Assigning straight into a field, element, or other
				// non-ident target stores the resource: ownership moves,
				// nothing to track.
				if idx := r.spec.result; idx < len(p.Lhs) {
					if _, ok := ast.Unparen(p.Lhs[idx]).(*ast.Ident); !ok {
						return true
					}
				}
				la.bind(r, call, p.Lhs)
			}
		case *ast.ValueSpec:
			if len(p.Values) == 1 && ast.Unparen(p.Values[0]) == call {
				idents := make([]ast.Expr, len(p.Names))
				for i, n := range p.Names {
					idents[i] = n
				}
				la.bind(r, call, idents)
			}
		case *ast.ExprStmt:
			r.immediate = "discarded"
		default:
			// Returned, passed along, or part of a larger expression:
			// ownership moves immediately; nothing to track.
			return true
		}
		if r.immediate == "" && len(r.vars) == 0 {
			// Bound to blank: acquired and unreleasable.
			r.immediate = "discarded"
		}
		if r.immediate == "" {
			la.collectAliases(body, r)
		}
		out = append(out, r)
		return true
	})
	return out
}

// bind attaches the resource variable (lhs at the spec's result index)
// and the paired error variable to r. A blank resource binding leaves
// vars empty, which the caller reports as discarded.
func (la *lifeAnalysis) bind(r *resource, call *ast.CallExpr, lhs []ast.Expr) {
	results := 1
	if tv, ok := la.info.Types[call]; ok {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			results = tuple.Len()
		}
	}
	if len(lhs) != results || r.spec.result >= len(lhs) {
		return
	}
	bindObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := la.info.Defs[id]; obj != nil {
			return obj
		}
		return la.info.Uses[id]
	}
	if obj := bindObj(lhs[r.spec.result]); obj != nil {
		r.vars[obj] = true
		r.name = obj.Name()
	}
	if idx := errorResultIndex(la.info, call); idx >= 0 && idx < len(lhs) {
		r.errVar = bindObj(lhs[idx])
	}
}

// errorResultIndex returns the index of the call's error result, or -1.
func errorResultIndex(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok {
		return -1
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok {
		return -1
	}
	for i := 0; i < tuple.Len(); i++ {
		if n, ok := tuple.At(i).Type().(*types.Named); ok &&
			n.Obj().Pkg() == nil && n.Obj().Name() == "error" {
			return i
		}
	}
	return -1
}

// blockEvents precomputes each block's state transitions in source
// order: acquires set a resource live, kills clear it. Defer context
// turns releases into deferred kills (registered now, runs at exit);
// non-deferred literal bodies turn any use into a capture transfer.
func (la *lifeAnalysis) blockEvents(cfg *CFG, tracked []*resource, owner ast.Node) [][]lifeEvent {
	byPos := make(map[token.Pos]*resource, len(tracked))
	for _, r := range tracked {
		byPos[r.pos] = r
	}
	events := make([][]lifeEvent, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			la.nodeEvents(n, byPos, tracked, owner, false, &events[b.Index])
		}
	}
	return events
}

// nodeEvents walks one shallow block node collecting events. deferred
// marks that we are under a defer statement.
func (la *lifeAnalysis) nodeEvents(node ast.Node, byPos map[token.Pos]*resource, tracked []*resource, owner ast.Node, deferred bool, out *[]lifeEvent) {
	switch s := node.(type) {
	case *ast.DeferStmt:
		la.nodeEvents(s.Call, byPos, tracked, owner, true, out)
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if n != node {
				la.nodeEvents(x.Call, byPos, tracked, owner, true, out)
				return false
			}
		case *ast.FuncLit:
			if deferred {
				// Deferred literal: its body runs at exit — releases
				// inside count as deferred kills, other uses are inert.
				la.litReleases(x, tracked, out)
				return false
			}
			// A non-deferred literal capturing a live resource moves
			// ownership out of this frame.
			la.litCaptures(x, tracked, out)
			return false
		case *ast.CallExpr:
			if r, ok := byPos[x.Pos()]; ok {
				*out = append(*out, lifeEvent{res: r, kind: "acquire"})
			}
		case *ast.Ident:
			obj := la.info.Uses[x]
			if obj == nil {
				return true
			}
			for _, r := range tracked {
				if !r.vars[obj] && !r.bodyVars[obj] {
					continue
				}
				kind := la.classify(x, r)
				switch kind {
				case "release", "received":
					if deferred {
						*out = append(*out, lifeEvent{res: r, kind: "deferred"})
					} else if kind == "release" {
						*out = append(*out, lifeEvent{res: r, kind: "released"})
					} else {
						*out = append(*out, lifeEvent{res: r, kind: "received"})
					}
				case "consumed", "returned", "stored", "goroutine":
					if deferred {
						*out = append(*out, lifeEvent{res: r, kind: "deferred"})
					} else {
						*out = append(*out, lifeEvent{res: r, kind: kind})
					}
				}
			}
		}
		return true
	})
}

// litReleases emits deferred kills for releases inside a deferred
// literal's body.
func (la *lifeAnalysis) litReleases(lit *ast.FuncLit, tracked []*resource, out *[]lifeEvent) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := la.info.Uses[id]
		if obj == nil {
			return true
		}
		for _, r := range tracked {
			if !r.vars[obj] && !r.bodyVars[obj] {
				continue
			}
			switch la.classify(id, r) {
			case "release", "received", "consumed":
				*out = append(*out, lifeEvent{res: r, kind: "deferred"})
			}
		}
		return true
	})
}

// litCaptures emits capture transfers for resources referenced inside a
// non-deferred literal.
func (la *lifeAnalysis) litCaptures(lit *ast.FuncLit, tracked []*resource, out *[]lifeEvent) {
	seen := make(map[*resource]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := la.info.Uses[id]
		if obj == nil {
			return true
		}
		for _, r := range tracked {
			if (r.vars[obj] || r.bodyVars[obj]) && !seen[r] {
				seen[r] = true
				*out = append(*out, lifeEvent{res: r, kind: "captured"})
			}
		}
		return true
	})
}

// edgeKill computes the resources known nil on one branch edge: after
// `v, err := acquire()`, `err != nil` implies v is nil on the true
// edge, `err == nil` implies it on the false edge.
func edgeKill(info *types.Info, b *CFGBlock, succIdx int, tracked []*resource) uint64 {
	if b.Cond == nil || len(b.Succs) != 2 {
		return 0
	}
	be, ok := ast.Unparen(b.Cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return 0
	}
	var errID *ast.Ident
	xNil := isNilIdent(info, be.X)
	yNil := isNilIdent(info, be.Y)
	switch {
	case yNil:
		errID, _ = ast.Unparen(be.X).(*ast.Ident)
	case xNil:
		errID, _ = ast.Unparen(be.Y).(*ast.Ident)
	}
	if errID == nil {
		return 0
	}
	obj := info.Uses[errID]
	if obj == nil {
		return 0
	}
	// NEQ: non-nil error on the true edge (0). EQL: on the false edge (1).
	killEdge := 0
	if be.Op == token.EQL {
		killEdge = 1
	}
	if succIdx != killEdge {
		return 0
	}
	var mask uint64
	for _, r := range tracked {
		if r.errVar != nil && r.errVar == obj {
			mask |= r.bit
		}
	}
	return mask
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// solve runs the forward may-leak dataflow to a fixpoint and records
// each resource's fate. A resource live on entry to Exit leaks on some
// path; Halt paths (panic, process exit) are not leaks.
func (la *lifeAnalysis) solve(cfg *CFG, events [][]lifeEvent, tracked []*resource) {
	nb := len(cfg.Blocks)
	in := make([]uint64, nb)
	out := make([]uint64, nb)
	apply := func(state uint64, evs []lifeEvent, record bool) uint64 {
		for _, e := range evs {
			if e.kind == "acquire" {
				state |= e.res.bit
				continue
			}
			if state&e.res.bit != 0 && record {
				if e.res.reasons == nil {
					e.res.reasons = make(map[string]bool)
				}
				e.res.reasons[e.kind] = true
			}
			state &^= e.res.bit
		}
		return state
	}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			o := apply(in[b.Index], events[b.Index], false)
			if o != out[b.Index] {
				out[b.Index] = o
				changed = true
			}
			for i, s := range b.Succs {
				contrib := o &^ edgeKill(la.info, b, i, tracked)
				if in[s.Index]|contrib != in[s.Index] {
					in[s.Index] |= contrib
					changed = true
				}
			}
		}
	}
	for _, b := range cfg.Blocks {
		apply(in[b.Index], events[b.Index], true)
	}
	leakedMask := in[cfg.Exit.Index]
	for _, r := range tracked {
		r.leaked = leakedMask&r.bit != 0
	}
}

// ---------------------------------------------------------------------------
// Lifecycle report (cmd/detlint -leaks)

// LeakReport inventories every tracked resource acquisition in the
// module: its kind, source, and fate (released, deferred, transferred,
// leaked, ...), with hot-path chains where the function is reachable
// from a //detlint:hotpath entry. Ordering is deterministic and each
// site carries a motion-tolerant fingerprint.
type LeakReport struct {
	Functions      []LeakFunc `json:"functions"`
	TotalResources int        `json:"total_resources"`
	Leaks          int        `json:"leaks"`
}

// LeakFunc is one function's resource inventory.
type LeakFunc struct {
	Func      string     `json:"func"`
	File      string     `json:"file"`
	Hot       bool       `json:"hot"`
	Chain     string     `json:"chain,omitempty"`
	Resources []LeakSite `json:"resources"`
}

// LeakSite is one tracked acquisition.
type LeakSite struct {
	Check       string `json:"check"`
	Kind        string `json:"kind"`
	File        string `json:"file"`
	Line        int    `json:"line"`
	Source      string `json:"source"`
	Var         string `json:"var,omitempty"`
	Outcome     string `json:"outcome"`
	Fingerprint string `json:"fingerprint"`
}

// LifecycleReport builds the resource-lifecycle report over the loaded
// packages. File paths are absolute; callers relativize for output.
func LifecycleReport(pkgs []*Package) *LeakReport {
	g := BuildGraph(pkgs)
	life := g.lifeState()
	hot := g.hotState()
	rep := &LeakReport{Functions: []LeakFunc{}}
	for _, n := range g.Nodes() {
		resources := life.resources[n]
		if len(resources) == 0 {
			continue
		}
		pos := n.Pkg.Fset.Position(n.Decl.Pos())
		isHot := hot.isHot(n)
		lf := LeakFunc{Func: n.Name(), File: pos.Filename, Hot: isHot}
		if isHot {
			lf.Chain = hot.hotChain(n)
		}
		for _, r := range resources {
			rp := n.Pkg.Fset.Position(r.pos)
			outcome := r.outcome()
			if outcome == "leaked" || outcome == "discarded" {
				rep.Leaks++
			}
			lf.Resources = append(lf.Resources, LeakSite{
				Check:       r.spec.check,
				Kind:        r.spec.kind,
				File:        rp.Filename,
				Line:        rp.Line,
				Source:      r.src,
				Var:         r.name,
				Outcome:     outcome,
				Fingerprint: r.spec.check + "\x1f" + n.ID + "\x1f" + r.spec.kind + " from " + r.src,
			})
		}
		rep.TotalResources += len(lf.Resources)
		rep.Functions = append(rep.Functions, lf)
	}
	sort.SliceStable(rep.Functions, func(i, j int) bool {
		a, b := rep.Functions[i], rep.Functions[j]
		if a.Hot != b.Hot {
			return a.Hot
		}
		return a.Func < b.Func
	})
	return rep
}

// Relativize rewrites the report's absolute file paths relative to the
// module root.
func (r *LeakReport) Relativize(root string) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return
	}
	for i := range r.Functions {
		r.Functions[i].File = relPath(r.Functions[i].File, abs)
		for j := range r.Functions[i].Resources {
			r.Functions[i].Resources[j].File = relPath(r.Functions[i].Resources[j].File, abs)
		}
	}
}

// Diagnostics converts the report's sites into plain diagnostics (check
// name "lifecycle") so the SARIF renderer can carry the report.
func (r *LeakReport) Diagnostics() []Diagnostic {
	var out []Diagnostic
	for _, f := range r.Functions {
		for _, s := range f.Resources {
			out = append(out, Diagnostic{
				Check:   "lifecycle",
				File:    s.File,
				Line:    s.Line,
				Col:     1,
				Message: s.Kind + " from " + s.Source + ": " + s.Outcome,
			})
		}
	}
	return out
}

// WriteText renders the report for humans: hot functions first, each
// resource with its source and fate.
func (r *LeakReport) WriteText(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("resource-lifecycle report: ")
	sb.WriteString(strconv.Itoa(len(r.Functions)))
	sb.WriteString(" function(s), ")
	sb.WriteString(strconv.Itoa(r.TotalResources))
	sb.WriteString(" tracked resource(s), ")
	sb.WriteString(strconv.Itoa(r.Leaks))
	sb.WriteString(" leak(s)\n")
	for i := range r.Functions {
		f := &r.Functions[i]
		sb.WriteByte('\n')
		sb.WriteString(f.Func)
		if f.Hot {
			sb.WriteString("  [hot]")
		}
		sb.WriteByte('\n')
		if f.Chain != "" {
			sb.WriteString("  via: ")
			sb.WriteString(f.Chain)
			sb.WriteByte('\n')
		}
		for _, s := range f.Resources {
			sb.WriteString("  ")
			sb.WriteString(s.File)
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(s.Line))
			sb.WriteString(" [")
			sb.WriteString(s.Check)
			sb.WriteString("] ")
			sb.WriteString(s.Kind)
			sb.WriteString(" from ")
			sb.WriteString(s.Source)
			if s.Var != "" {
				sb.WriteString(" (")
				sb.WriteString(s.Var)
				sb.WriteString(")")
			}
			sb.WriteString(" -> ")
			sb.WriteString(s.Outcome)
			sb.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

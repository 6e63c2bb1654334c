package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// This file builds a module-wide call graph on top of the per-package
// loads, giving the interprocedural checks (taint, gorleak, lockheld) a
// shared substrate, plus the hot-path reachability from
// //detlint:hotpath entry points that deferhot and the lifecycle checks
// read. Resolution is deliberately simple and deterministic:
//
//   - Static calls — package functions and concrete methods — resolve to
//     exactly one callee.
//   - Interface method calls resolve class-hierarchy style: an edge to
//     the matching method of every module type that implements the
//     interface (stdlib implementations are invisible and out of scope).
//   - Calls through function values resolve to every module function or
//     method whose value is taken somewhere in the module and whose
//     signature is identical to the callee expression's type.
//   - Function literals are merged into the enclosing declared function:
//     their bodies' calls, sources, and sinks belong to the declaring
//     node. This keeps chains readable and handles the dominant idioms
//     (worker goroutines, sort.Slice comparators, scheduled callbacks)
//     at the cost of attributing a stored closure's effects to its
//     declaration site rather than its invocation site.
//
// Soundness caveats are documented in DESIGN.md; the graph over-
// approximates dynamic dispatch within the module and under-approximates
// calls that leave it (reflection, closures invoked by the stdlib).

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	Fn   *types.Func
	ID   string // Fn.FullName(): unique and stable across runs
	Pkg  *Package
	Decl *ast.FuncDecl

	// Calls holds the outgoing edges in deterministic order: source
	// order for the call sites, target-ID order within a dynamic site.
	Calls []CallSite
}

// CallSite is one resolved outgoing edge.
type CallSite struct {
	Callee  *FuncNode
	Pos     token.Pos
	Dynamic bool // via interface dispatch or a function value
}

// Name renders the node compactly for diagnostics: "core.Median",
// "webserve.(*Server).Start". Package qualifiers use the import path's
// last element, which is unique in this module and keeps chains short.
func (n *FuncNode) Name() string {
	base := path.Base(n.Fn.Pkg().Path())
	sig := n.Fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		ptr := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			ptr = "*"
		}
		name := rt.String()
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return base + ".(" + ptr + name + ")." + n.Fn.Name()
	}
	return base + "." + n.Fn.Name()
}

// Graph is the module-wide call graph plus lazily computed analysis
// state shared by the interprocedural checks.
type Graph struct {
	nodes  map[*types.Func]*FuncNode
	sorted []*FuncNode // by ID

	taint  *taintState // computed on first use by the taint check
	blocky *blockState // computed on first use by gorleak/lockheld
	hot    *hotState   // computed on first use by deferhot and the lifecycle checks
	life   *lifeState  // computed on first use by the lifecycle checks
}

// Nodes returns every function node sorted by ID.
func (g *Graph) Nodes() []*FuncNode { return g.sorted }

// NodeOf returns the node for a declared module function, or nil.
func (g *Graph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// BuildGraph constructs the call graph over the loaded packages.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{nodes: make(map[*types.Func]*FuncNode)}

	// Pass 1: one node per declared function with a body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[obj] = &FuncNode{Fn: obj, ID: obj.FullName(), Pkg: pkg, Decl: fd}
			}
		}
	}
	g.sorted = make([]*FuncNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		g.sorted = append(g.sorted, n)
	}
	sort.Slice(g.sorted, func(i, j int) bool { return g.sorted[i].ID < g.sorted[j].ID })

	concrete := moduleConcreteTypes(pkgs)
	taken := g.addressTakenFuncs(pkgs)

	// Pass 2: edges.
	for _, n := range g.sorted {
		info := n.Pkg.Info
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			g.addCallEdges(n, info, call, concrete, taken)
			return true
		})
	}
	return g
}

// addCallEdges resolves one call expression and appends the edges.
func (g *Graph) addCallEdges(n *FuncNode, info *types.Info, call *ast.CallExpr, concrete []types.Type, taken []takenFunc) {
	fun := ast.Unparen(call.Fun)

	// Conversions and builtins are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin, nil:
			return
		case *types.Func:
			if callee := g.NodeOf(obj); callee != nil {
				n.Calls = append(n.Calls, CallSite{Callee: callee, Pos: call.Pos()})
			}
			return
		}
		// A variable or parameter of function type: dynamic.
		g.addDynamicEdges(n, info, fun, call.Pos(), taken)
		return
	case *ast.FuncLit:
		// Immediately invoked literal; its body is already merged into n.
		return
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				g.addInterfaceEdges(n, m.Name(), iface, call.Pos(), concrete)
				return
			}
			if callee := g.NodeOf(m); callee != nil {
				n.Calls = append(n.Calls, CallSite{Callee: callee, Pos: call.Pos()})
			}
			return
		}
		// pkg.Func, a struct field of function type, or a method
		// expression value.
		if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			if callee := g.NodeOf(obj); callee != nil {
				n.Calls = append(n.Calls, CallSite{Callee: callee, Pos: call.Pos()})
			}
			return
		}
		g.addDynamicEdges(n, info, fun, call.Pos(), taken)
		return
	default:
		// Call of an arbitrary expression of function type.
		g.addDynamicEdges(n, info, fun, call.Pos(), taken)
	}
}

// addInterfaceEdges links an interface method call to the matching
// method of every module type implementing the interface.
func (g *Graph) addInterfaceEdges(n *FuncNode, method string, iface *types.Interface, pos token.Pos, concrete []types.Type) {
	var targets []*FuncNode
	for _, t := range concrete {
		impl := types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, nil, method)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if callee := g.NodeOf(m); callee != nil {
			targets = append(targets, callee)
		}
	}
	appendTargets(n, targets, pos)
}

// takenFunc is a module function whose value escapes somewhere, with the
// signature a caller through a function value would see (methods lose
// their receiver).
type takenFunc struct {
	node *FuncNode
	sig  *types.Signature
}

// addDynamicEdges links a call through a function value to every
// address-taken module function with an identical signature.
func (g *Graph) addDynamicEdges(n *FuncNode, info *types.Info, fun ast.Expr, pos token.Pos, taken []takenFunc) {
	tv, ok := info.Types[fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	var targets []*FuncNode
	for _, tf := range taken {
		if types.Identical(tf.sig, sig) {
			targets = append(targets, tf.node)
		}
	}
	appendTargets(n, targets, pos)
}

// appendTargets appends dynamic edges in deterministic target order.
func appendTargets(n *FuncNode, targets []*FuncNode, pos token.Pos) {
	sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })
	seen := map[*FuncNode]bool{}
	for _, t := range targets {
		if seen[t] {
			continue
		}
		seen[t] = true
		n.Calls = append(n.Calls, CallSite{Callee: t, Pos: pos, Dynamic: true})
	}
}

// moduleConcreteTypes collects every exported-or-not named non-interface
// type declared in the module, sorted by name for determinism.
func moduleConcreteTypes(pkgs []*Package) []types.Type {
	var out []types.Type
	var names []string
	for _, pkg := range pkgs { // pkgs are sorted by path
		scope := pkg.Types.Scope()
		scopeNames := scope.Names() // already sorted
		for _, name := range scopeNames {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				continue
			}
			out = append(out, t)
			names = append(names, pkg.Path+"."+name)
		}
	}
	sort.Sort(&typesByName{out, names})
	return out
}

type typesByName struct {
	ts    []types.Type
	names []string
}

func (s *typesByName) Len() int           { return len(s.ts) }
func (s *typesByName) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *typesByName) Swap(i, j int) {
	s.ts[i], s.ts[j] = s.ts[j], s.ts[i]
	s.names[i], s.names[j] = s.names[j], s.names[i]
}

// addressTakenFuncs finds every module function or method whose value is
// used outside a direct call — assigned, passed, stored — and therefore
// reachable through a function-value call. Sorted by node ID.
func (g *Graph) addressTakenFuncs(pkgs []*Package) []takenFunc {
	takenSet := make(map[*FuncNode]*types.Signature)
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			// Identifiers consumed as the callee of a call expression are
			// plain calls, not value uses.
			calleeIdents := make(map[*ast.Ident]bool)
			ast.Inspect(f, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					calleeIdents[fun] = true
				case *ast.SelectorExpr:
					calleeIdents[fun.Sel] = true
				}
				return true
			})
			ast.Inspect(f, func(node ast.Node) bool {
				id, ok := node.(*ast.Ident)
				if !ok || calleeIdents[id] {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				n := g.NodeOf(fn)
				if n == nil {
					return true
				}
				sig := fn.Type().(*types.Signature)
				if sig.Recv() != nil {
					// The value form of a method drops the receiver.
					sig = types.NewSignatureType(nil, nil, nil,
						sig.Params(), sig.Results(), sig.Variadic())
				}
				takenSet[n] = sig
				return true
			})
		}
	}
	out := make([]takenFunc, 0, len(takenSet))
	for n, sig := range takenSet {
		out = append(out, takenFunc{node: n, sig: sig})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].node.ID < out[j].node.ID })
	return out
}

// reachability computes, for every node, the length of the shortest call
// chain to any node satisfying direct, plus the first edge of one such
// chain. The result is a pure function of the graph: candidate edges are
// ranked by (distance, callee ID, position), so ties never depend on
// map iteration or scheduling.
func reachability(nodes []*FuncNode, direct func(*FuncNode) bool) (dist map[*FuncNode]int, next map[*FuncNode]CallSite) {
	dist = make(map[*FuncNode]int)
	next = make(map[*FuncNode]CallSite)
	for _, n := range nodes {
		if direct(n) {
			dist[n] = 0
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if direct(n) {
				continue
			}
			bestDist, bestSite, found := 0, CallSite{}, false
			for _, cs := range n.Calls {
				d, ok := dist[cs.Callee]
				if !ok {
					continue
				}
				cand := d + 1
				if !found || cand < bestDist ||
					(cand == bestDist && (cs.Callee.ID < bestSite.Callee.ID ||
						(cs.Callee.ID == bestSite.Callee.ID && cs.Pos < bestSite.Pos))) {
					bestDist, bestSite, found = cand, cs, true
				}
			}
			if !found {
				continue
			}
			if d, ok := dist[n]; !ok || bestDist != d || next[n] != bestSite {
				dist[n] = bestDist
				next[n] = bestSite
				changed = true
			}
		}
	}
	return dist, next
}

// chain renders the call path from n to the nearest node satisfying the
// reachability predicate, as "a → b → c".
func chain(n *FuncNode, dist map[*FuncNode]int, next map[*FuncNode]CallSite) []string {
	var names []string
	for {
		names = append(names, n.Name())
		if dist[n] == 0 {
			return names
		}
		cs, ok := next[n]
		if !ok {
			return names
		}
		n = cs.Callee
	}
}

// hotpathDirective marks a function as a hot entry point when it appears
// in the function's doc comment.
const hotpathDirective = "detlint:hotpath"

// hotState is forward reachability from the //detlint:hotpath entry
// points (browser.Load, core.Study.RunStream, the hisparserve handlers):
// every function reachable from an entry gets its shortest call distance
// and a deterministic predecessor toward the nearest entry, from which
// hotChain renders the path.
type hotState struct {
	dist map[*FuncNode]int       // shortest distance from any entry; entries are 0
	prev map[*FuncNode]*FuncNode // deterministic predecessor toward the entry
}

// hotState computes (once) hot-path reachability for the whole module.
// Predecessors are ranked by (distance, caller ID) and every sweep
// iterates g.sorted, so the result is a pure function of the graph.
func (g *Graph) hotState() *hotState {
	if g.hot != nil {
		return g.hot
	}
	st := &hotState{
		dist: make(map[*FuncNode]int),
		prev: make(map[*FuncNode]*FuncNode),
	}
	for _, n := range g.sorted {
		if isHotEntry(n) {
			st.dist[n] = 0
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.sorted {
			d, hot := st.dist[n]
			if !hot {
				continue
			}
			for _, cs := range n.Calls {
				callee, nd := cs.Callee, d+1
				cur, ok := st.dist[callee]
				if ok && cur == 0 {
					continue // never displace an entry
				}
				if !ok || nd < cur || (nd == cur && n.ID < st.prev[callee].ID) {
					st.dist[callee] = nd
					st.prev[callee] = n
					changed = true
				}
			}
		}
	}
	g.hot = st
	return st
}

// isHot reports whether n is reachable from a hot entry point.
func (st *hotState) isHot(n *FuncNode) bool {
	_, ok := st.dist[n]
	return ok
}

// isHotEntry reports whether the function's doc comment carries the
// //detlint:hotpath directive.
func isHotEntry(n *FuncNode) bool {
	if n.Decl.Doc == nil {
		return false
	}
	for _, c := range n.Decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, hotpathDirective) {
			return true
		}
	}
	return false
}

// hotChain renders the call path from the nearest entry point down to n,
// as "entry → a → n". Long chains elide the middle.
func (st *hotState) hotChain(n *FuncNode) string {
	var names []string
	for cur := n; cur != nil; cur = st.prev[cur] {
		names = append(names, cur.Name())
		if st.dist[cur] == 0 {
			break
		}
	}
	// Reverse into entry-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	if len(names) > 6 {
		names = append(append(names[:3:3], "…"), names[len(names)-2:]...)
	}
	return strings.Join(names, " → ")
}

// shortPos renders a position as "file.go:12" using only the base file
// name, so diagnostics are byte-identical across machines and checkouts.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return path.Base(strings.ReplaceAll(p.Filename, "\\", "/")) + ":" + itoaSmall(p.Line)
}

func itoaSmall(n int) string {
	if n <= 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

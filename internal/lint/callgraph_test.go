package lint

import (
	"go/importer"
	"go/token"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// calleesOf returns the sorted callee names of the named function, with
// a dynamic/static marker, e.g. "methodvalue.(*Counter).Inc (dynamic)".
func calleesOf(t *testing.T, g *Graph, name string) []string {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name() != name {
			continue
		}
		var out []string
		for _, cs := range n.Calls {
			s := cs.Callee.Name()
			if cs.Dynamic {
				s += " (dynamic)"
			} else {
				s += " (static)"
			}
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}
	t.Fatalf("function %s not found in graph", name)
	return nil
}

// TestMethodValueResolution pins down call-graph resolution of method
// values: x.Method taken as a value — both bound to a variable and
// passed as a function-typed argument — must produce edges to every
// signature-compatible address-taken method.
func TestMethodValueResolution(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	dir := filepath.Join("testdata", "src", "methodvalue")
	pkg := loadTestPkg(t, fset, std, dir, "repro/internal/methodvalue")
	g := BuildGraph([]*Package{pkg})

	assertEdges := func(fn string, want []string) {
		t.Helper()
		got := calleesOf(t, g, fn)
		if len(got) != len(want) {
			t.Fatalf("%s callees = %v, want %v", fn, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s callees = %v, want %v", fn, got, want)
				return
			}
		}
	}

	// Drive calls f (a method value — dynamic, resolving to every
	// address-taken bound method with signature func()) and Apply
	// (static).
	assertEdges("methodvalue.Drive", []string{
		"methodvalue.(*Counter).Dec (dynamic)",
		"methodvalue.(*Counter).Inc (dynamic)",
		"methodvalue.Apply (static)",
	})
	// Apply invokes its func() parameter: both matching address-taken
	// method values are candidates.
	assertEdges("methodvalue.Apply", []string{
		"methodvalue.(*Counter).Dec (dynamic)",
		"methodvalue.(*Counter).Inc (dynamic)",
	})
}

// loadDeferhotGraph builds the call graph of the deferhot fixture from a
// fresh FileSet and importer.
func loadDeferhotGraph(t *testing.T) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	dir := filepath.Join("testdata", "src", "deferhot")
	return BuildGraph([]*Package{loadTestPkg(t, fset, std, dir, "repro/internal/deferhot")})
}

func nodeNamed(t *testing.T, g *Graph, name string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("function %s not found in graph", name)
	return nil
}

// TestHotReachability pins hot-path reachability over the deferhot
// fixture: every //detlint:hotpath function is an entry at distance 0,
// even nested, which another entry calls; a helper called from an entry
// is one hop away with a chain starting at that entry; a function no
// entry reaches is absent.
func TestHotReachability(t *testing.T) {
	g := loadDeferhotGraph(t)
	st := g.hotState()

	entries := []string{"deferhot.Entry", "deferhot.allowed", "deferhot.nested", "deferhot.perIteration", "deferhot.topLevel"}
	for _, name := range entries {
		n := nodeNamed(t, g, name)
		if d, ok := st.dist[n]; !ok || d != 0 || st.prev[n] != nil {
			t.Errorf("%s: dist %d (hot %v), prev %v; want an undisplaced entry at distance 0", name, d, ok, st.prev[n])
		}
		if got := st.hotChain(n); got != name {
			t.Errorf("%s: chain %q, want the entry alone", name, got)
		}
	}
	var zero int
	for _, d := range st.dist {
		if d == 0 {
			zero++
		}
	}
	if zero != len(entries) {
		t.Errorf("%d functions at distance 0, want the %d hotpath-annotated ones", zero, len(entries))
	}

	for _, tc := range []struct{ name, chain string }{
		{"deferhot.use", "deferhot.Entry → deferhot.use"},
		{"deferhot.release", "deferhot.nested → deferhot.release"},
	} {
		n := nodeNamed(t, g, tc.name)
		if d, ok := st.dist[n]; !ok || d != 1 {
			t.Errorf("%s: dist %d (hot %v), want 1", tc.name, d, ok)
		}
		if got := st.hotChain(n); got != tc.chain {
			t.Errorf("%s: chain %q, want %q", tc.name, got, tc.chain)
		}
	}

	if cold := nodeNamed(t, g, "deferhot.cold"); st.isHot(cold) {
		t.Errorf("deferhot.cold is reachable from no entry but has dist %d", st.dist[cold])
	}
}

// renderHotChains renders every hot function's distance and chain from a
// fresh load, in graph order.
func renderHotChains(t *testing.T) string {
	t.Helper()
	g := loadDeferhotGraph(t)
	st := g.hotState()
	var sb strings.Builder
	for _, n := range g.Nodes() {
		if st.isHot(n) {
			sb.WriteString(n.Name() + " dist=" + itoa(st.dist[n]) + " via " + st.hotChain(n) + "\n")
		}
	}
	return sb.String()
}

// TestHotChainDeterminism requires the chain rendering to be
// byte-identical across two fresh loads and at GOMAXPROCS=1.
func TestHotChainDeterminism(t *testing.T) {
	first := renderHotChains(t)
	if first == "" {
		t.Fatal("no hot functions; determinism comparison is vacuous")
	}
	if again := renderHotChains(t); again != first {
		t.Errorf("chains diverged across loads:\n--- first ---\n%s--- second ---\n%s", first, again)
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if serial := renderHotChains(t); serial != first {
		t.Errorf("GOMAXPROCS=1 chains diverged:\n--- parallel ---\n%s--- serial ---\n%s", first, serial)
	}
}

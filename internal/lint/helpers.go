package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// pkgFunc resolves a call expression to (package path, function name)
// when the callee is a selector on an imported package (e.g. time.Now).
// It returns ok=false for method calls and locally defined functions.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCall resolves a call expression to (receiver type, method name)
// when the callee is a method selector. The receiver type has pointers
// stripped.
func methodCall(info *types.Info, call *ast.CallExpr) (recv types.Type, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	s, isMethod := info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return nil, "", false
	}
	t := s.Recv()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	return t, sel.Sel.Name, true
}

// builtinName returns the name of the builtin a call expression invokes,
// or "".
func builtinName(info *types.Info, fun ast.Expr) string {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// exprDesc renders a source expression compactly for diagnostics.
func exprDesc(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

// isSubPath reports whether the import path equals prefix or sits below
// it ("repro/internal/core" is below "repro/internal").
func isSubPath(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// namedIn reports whether t (pointers stripped) is a named type from the
// given package with one of the given names.
func namedIn(t types.Type, pkgPath string, names ...string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	for _, name := range names {
		if obj.Name() == name {
			return true
		}
	}
	return false
}

// lastResultIsError reports whether the call's callee returns an error
// as its final result.
func lastResultIsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	n, ok := last.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// containsCallTo reports whether any call to pkgPath.<any of names>
// appears in the expression subtree.
func containsCallTo(info *types.Info, e ast.Expr, pkgPath string, names ...string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		p, f, ok := pkgFunc(info, call)
		if !ok || p != pkgPath {
			return true
		}
		for _, name := range names {
			if f == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive guards the soundness of verdict plumbing: a switch over a
// closed constant set (explore.Verdict, the speculation memo's put
// results) that omits a value routes that value through the default
// path — or past the switch entirely — silently. In the deterministic
// closure, every expression switch whose tag is a module-local named
// type with a package-level constant set must either name every value of
// the set in its cases or carry `//lint:exhaustive-ok <reason>`. A
// default clause does not satisfy the analyzer: the point is that adding
// a new constant (a new verdict, a new scheduler) fails the lint run at
// every switch that has not decided what the new value means. Matching
// is by constant value, so an alias (a constant declared equal to
// another) is covered by either name. Type switches and switches over
// non-module or single-constant types are out of scope.
var Exhaustive = &Analyzer{
	Name:    "exhaustive",
	Doc:     "require switches over closed module-local const sets in the deterministic closure to name every value or carry //lint:exhaustive-ok",
	Run:     runExhaustive,
	Closure: true,
}

func runExhaustive(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := pass.TypesInfo.Types[sw.Tag]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			if !moduleLocal(named.Obj().Pkg().Path()) {
				return true
			}
			if _, ok := named.Underlying().(*types.Basic); !ok {
				return true
			}
			set := constSet(named, named.Obj().Pkg() == pass.Pkg)
			if len(set) < 2 {
				return true
			}
			covered := make(map[string]bool)
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					etv, ok := pass.TypesInfo.Types[e]
					if !ok || etv.Value == nil {
						continue
					}
					covered[etv.Value.ExactString()] = true
				}
			}
			var missing []string
			for val, names := range set {
				if !covered[val] {
					missing = append(missing, names[0])
				}
			}
			if len(missing) == 0 {
				return true
			}
			sort.Strings(missing)
			if pass.annotated(sw.Pos(), "exhaustive-ok") {
				return true
			}
			pass.ReportfClosure(sw.Pos(), "switch over %s does not handle %s: a value of a closed const set routed through default (or past the switch) is a silent soundness hole; name every value or annotate //lint:exhaustive-ok <reason>", typeLabel(named), strings.Join(missing, ", "))
			return true
		})
	}
	return nil
}

// constSet collects the package-level constants declared with exactly
// the named type, grouped by value (aliases share an entry). The map is
// value → constant names, names sorted for deterministic diagnostics.
// Outside the type's own package only exported constants count: a
// foreign switch could not name the unexported ones, and the vet
// driver's export data does not even carry them — so both drivers agree.
func constSet(named *types.Named, samePkg bool) map[string][]string {
	set := make(map[string][]string)
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if !samePkg && !c.Exported() {
			continue
		}
		if c.Val().Kind() == constant.Unknown {
			continue
		}
		key := c.Val().ExactString()
		set[key] = append(set[key], c.Name())
	}
	for key := range set {
		sort.Strings(set[key])
	}
	return set
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShardCollect flags the fan-out pattern that breaks worker-count
// invariance: a concurrent worker body appending results to a slice
// declared outside it. Even under a mutex the append ORDER depends on
// goroutine scheduling, so the collected slice differs between worker
// counts and runs — the repository's sharded==serial equivalence
// contract requires index-addressed result writes instead (one slot
// per channel/die/block, as ShardChannels callers do with
// `perChan[ch] = ...`), with any ordered merge done after the join.
//
// Every fan-out in the tree goes through one executor, par.Shard; the
// named wrappers (ShardChannels, ShardDies, RunSharded, ...) hand it
// their worker bodies. A worker body is (a) a function literal
// launched by a `go` statement, or (b) a function literal passed to a
// sharded executor: a callee, bare or selector (par.Shard,
// ms.ShardChannels), whose name starts with "Shard" or contains
// "Sharded". Channel sends and index-addressed writes pass;
// `xs = append(xs, ...)` on a captured slice is flagged unless
// annotated `//repro:unordered <why>`.
var ShardCollect = &Analyzer{
	Name: "shardcollect",
	Doc:  "flags appends to a shared slice from goroutine/sharded-executor worker bodies; results must be written index-addressed for worker-count invariance",
	Run:  runShardCollect,
}

func runShardCollect(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkWorkerBody(pass, lit, "goroutine")
				}
			case *ast.CallExpr:
				name := calleeName(n)
				if !isShardExecutor(name) {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkWorkerBody(pass, lit, name+" worker")
					}
				}
			}
			return true
		})
	}
	return nil
}

func isShardExecutor(name string) bool {
	return strings.HasPrefix(name, "Shard") || strings.Contains(name, "Sharded")
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// checkWorkerBody flags `xs = append(xs, ...)` inside lit when xs is
// declared outside lit (a captured, shared slice).
func checkWorkerBody(pass *Pass, lit *ast.FuncLit, context string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			fun, ok := call.Fun.(*ast.Ident)
			if !ok || fun.Name != "append" {
				continue
			}
			if _, isBuiltin := pass.Pkg.Info.Uses[fun].(*types.Builtin); !isBuiltin {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			lhs, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				// Index-addressed (xs[i] = append(xs[i], ...)) and
				// field-addressed targets are per-slot by construction.
				continue
			}
			obj := pass.Pkg.Info.ObjectOf(lhs)
			if obj == nil || obj.Pos() == 0 {
				continue
			}
			arg0, ok := call.Args[0].(*ast.Ident)
			if !ok || pass.Pkg.Info.ObjectOf(arg0) != obj {
				continue
			}
			// Declared inside the worker body: worker-local, fine.
			if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
				continue
			}
			if pass.suppress(as, DirectiveUnordered) {
				continue
			}
			pass.Reportf(as.Pos(),
				"append to shared slice %q from a %s: append order depends on scheduling, so results vary with worker count; write index-addressed results (one slot per shard) and merge in order after the join, or annotate //%s <why>",
				lhs.Name, context, DirectiveUnordered)
		}
		return true
	})
}

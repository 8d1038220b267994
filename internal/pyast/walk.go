package pyast

// Walk traverses the node in depth-first, source order, calling visit
// for every node. If visit returns false the node's children are
// skipped. Tools use it for counting, searching, and linting.
func Walk(n Node, visit func(Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	switch n := n.(type) {
	case *ClassDef:
		for _, d := range n.Decorators {
			Walk(d, visit)
		}
		for _, b := range n.Bases {
			Walk(b, visit)
		}
		for _, s := range n.Body {
			Walk(s, visit)
		}
		for _, m := range n.Methods {
			Walk(m, visit)
		}
	case *FuncDef:
		for _, d := range n.Decorators {
			Walk(d, visit)
		}
		walkStmts(n.Body, visit)
	case *Decorator:
		for _, a := range n.Args {
			Walk(a, visit)
		}
	case *ExprStmt:
		Walk(n.X, visit)
	case *Assign:
		Walk(n.Target, visit)
		Walk(n.Value, visit)
	case *Return:
		for _, v := range n.Values {
			Walk(v, visit)
		}
	case *If:
		Walk(n.Cond, visit)
		walkStmts(n.Body, visit)
		for _, e := range n.Elifs {
			Walk(e.Cond, visit)
			walkStmts(e.Body, visit)
		}
		walkStmts(n.Else, visit)
	case *Match:
		Walk(n.Subject, visit)
		for _, c := range n.Cases {
			Walk(c.Pattern, visit)
			walkStmts(c.Body, visit)
		}
	case *While:
		Walk(n.Cond, visit)
		walkStmts(n.Body, visit)
	case *For:
		Walk(n.Target, visit)
		Walk(n.Iter, visit)
		walkStmts(n.Body, visit)
	case *AttrExpr:
		Walk(n.Value, visit)
	case *CallExpr:
		Walk(n.Fn, visit)
		for _, a := range n.Args {
			Walk(a, visit)
		}
	case *ListExpr:
		for _, e := range n.Elts {
			Walk(e, visit)
		}
	case *TupleExpr:
		for _, e := range n.Elts {
			Walk(e, visit)
		}
	case *BinOpExpr:
		Walk(n.Left, visit)
		Walk(n.Right, visit)
	case *UnaryExpr:
		Walk(n.X, visit)
	}
}

func walkStmts(body []Stmt, visit func(Node) bool) {
	for _, s := range body {
		Walk(s, visit)
	}
}

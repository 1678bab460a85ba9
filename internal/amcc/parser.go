package amcc

import "fmt"

type parser struct {
	file string
	toks []token
	pos  int
	unit *unit
	// function-scope state
	fn     *function
	scopes []map[string]*localVar
}

func parse(file, src string) (*unit, error) {
	toks, err := lex(file, src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		file: file,
		toks: toks,
		unit: &unit{file: file, syms: map[string]*symbol{}},
	}
	for !p.at(tkEOF, "") {
		if err := p.topDecl(); err != nil {
			return nil, err
		}
	}
	return p.unit, nil
}

// --- token helpers ---

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{File: p.file, Line: p.cur().line, Msg: fmt.Sprintf(format, args...)}
}

// --- declarations ---

// parseType consumes 'long'/'byte'/'void' plus pointer stars.
func (p *parser) parseType() (Type, error) {
	var base Type
	switch {
	case p.accept(tkKeyword, "long"):
		base = TypeLong
	case p.accept(tkKeyword, "byte"):
		base = TypePtrByte // bare byte only exists behind a pointer
	case p.accept(tkKeyword, "void"):
		return TypeVoid, nil
	default:
		return 0, p.errf("expected a type, found %q", p.cur().text)
	}
	stars := 0
	for p.accept(tkPunct, "*") {
		stars++
	}
	if base == TypePtrByte {
		if stars != 1 {
			return 0, p.errf("byte values exist only behind a single pointer (byte*)")
		}
		return TypePtrByte, nil
	}
	switch stars {
	case 0:
		return TypeLong, nil
	case 1:
		return TypePtrLong, nil
	}
	return 0, p.errf("at most one level of indirection is supported")
}

func (p *parser) topDecl() error {
	isExtern := p.accept(tkKeyword, "extern")
	typ, err := p.parseType()
	if err != nil {
		return err
	}
	name, err := p.expect(tkIdent, "")
	if err != nil {
		return err
	}
	if _, dup := p.unit.syms[name.text]; dup {
		return p.errf("symbol %q redeclared", name.text)
	}

	// Function declaration or definition.
	if p.at(tkPunct, "(") {
		return p.funcDecl(isExtern, typ, name)
	}

	// Object: optional array suffix and initializer.
	count := int64(1)
	isArray := false
	if p.accept(tkPunct, "[") {
		isArray = true
		if !p.at(tkPunct, "]") {
			n, err := p.expect(tkNumber, "")
			if err != nil {
				return err
			}
			count = n.num
		} else if !isExtern {
			return p.errf("defined array %q needs a length", name.text)
		}
		if _, err := p.expect(tkPunct, "]"); err != nil {
			return err
		}
	}
	var init *int64
	if p.accept(tkPunct, "=") {
		n, err := p.expect(tkNumber, "")
		if err != nil {
			return err
		}
		if isExtern {
			return p.errf("extern %q cannot have an initializer", name.text)
		}
		if isArray {
			return p.errf("array %q cannot have an initializer", name.text)
		}
		v := n.num
		init = &v
	}
	if _, err := p.expect(tkPunct, ";"); err != nil {
		return err
	}

	// The type an expression naming the object has: arrays and all data
	// symbols decay to pointers (data lives behind the GOT).
	symType := typ
	if !symType.isPtr() {
		symType = TypePtrLong
	}
	p.unit.syms[name.text] = &symbol{
		typ: symType, isExtern: isExtern,
	}
	if !isExtern {
		elem := int64(8)
		if typ == TypePtrByte {
			elem = 1
		}
		p.unit.globals = append(p.unit.globals, &globalDef{
			name: name.text, count: count, elem: elem, init: init, line: name.line,
		})
	}
	return nil
}

func (p *parser) funcDecl(isExtern bool, ret Type, name token) error {
	if _, err := p.expect(tkPunct, "("); err != nil {
		return err
	}
	fn := &function{name: name.text}
	for !p.at(tkPunct, ")") {
		if len(fn.params) > 0 {
			if _, err := p.expect(tkPunct, ","); err != nil {
				return err
			}
		}
		if p.accept(tkKeyword, "void") && p.at(tkPunct, ")") {
			break
		}
		pt, err := p.parseType()
		if err != nil {
			return err
		}
		pn, err := p.expect(tkIdent, "")
		if err != nil {
			return err
		}
		if len(fn.params) >= 6 {
			return p.errf("at most 6 parameters are supported")
		}
		fn.params = append(fn.params, &localVar{name: pn.text, typ: pt})
	}
	if _, err := p.expect(tkPunct, ")"); err != nil {
		return err
	}
	p.unit.syms[name.text] = &symbol{
		isFunc: true, isExtern: isExtern, retType: ret, numParam: len(fn.params),
	}
	if p.accept(tkPunct, ";") {
		if !isExtern {
			return p.errf("function %q declared without a body (use extern)", name.text)
		}
		return nil
	}
	if isExtern {
		return p.errf("extern function %q cannot have a body", name.text)
	}

	p.fn = fn
	p.scopes = []map[string]*localVar{{}}
	for _, prm := range fn.params {
		if err := p.defineLocal(prm); err != nil {
			return err
		}
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	fn.body = body
	p.fn = nil
	p.scopes = nil
	p.unit.funcs = append(p.unit.funcs, fn)
	return nil
}

// --- scopes ---

func (p *parser) defineLocal(v *localVar) error {
	scope := p.scopes[len(p.scopes)-1]
	if _, dup := scope[v.name]; dup {
		return p.errf("variable %q redeclared", v.name)
	}
	scope[v.name] = v
	p.fn.locals = append(p.fn.locals, v)
	return nil
}

func (p *parser) lookupLocal(name string) *localVar {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if v, ok := p.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

// --- statements ---

func (p *parser) block() (*stmt, error) {
	line := p.cur().line
	if _, err := p.expect(tkPunct, "{"); err != nil {
		return nil, err
	}
	p.scopes = append(p.scopes, map[string]*localVar{})
	defer func() { p.scopes = p.scopes[:len(p.scopes)-1] }()
	out := &stmt{kind: stBlock, line: line}
	for !p.accept(tkPunct, "}") {
		if p.at(tkEOF, "") {
			return nil, p.errf("unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out.stmts = append(out.stmts, s)
	}
	return out, nil
}

func (p *parser) statement() (*stmt, error) {
	line := p.cur().line
	switch {
	case p.at(tkPunct, "{"):
		return p.block()

	case p.accept(tkKeyword, "return"):
		s := &stmt{kind: stReturn, line: line}
		if !p.at(tkPunct, ";") {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			s.expr = e
		}
		_, err := p.expect(tkPunct, ";")
		return s, err

	case p.accept(tkKeyword, "break"):
		_, err := p.expect(tkPunct, ";")
		return &stmt{kind: stBreak, line: line}, err

	case p.accept(tkKeyword, "continue"):
		_, err := p.expect(tkPunct, ";")
		return &stmt{kind: stContinue, line: line}, err

	case p.accept(tkKeyword, "if"):
		cond, body, err := p.condBody()
		if err != nil {
			return nil, err
		}
		s := &stmt{kind: stIf, line: line, cond: cond, body: body}
		if p.accept(tkKeyword, "else") {
			if s.alt, err = p.statement(); err != nil {
				return nil, err
			}
		}
		return s, nil

	case p.accept(tkKeyword, "while"):
		cond, body, err := p.condBody()
		if err != nil {
			return nil, err
		}
		return &stmt{kind: stWhile, line: line, cond: cond, body: body}, nil

	case p.accept(tkKeyword, "for"):
		if _, err := p.expect(tkPunct, "("); err != nil {
			return nil, err
		}
		s := &stmt{kind: stFor, line: line}
		p.scopes = append(p.scopes, map[string]*localVar{})
		defer func() { p.scopes = p.scopes[:len(p.scopes)-1] }()
		if !p.at(tkPunct, ";") {
			init, err := p.simpleOrDecl()
			if err != nil {
				return nil, err
			}
			s.init = init
		}
		if _, err := p.expect(tkPunct, ";"); err != nil {
			return nil, err
		}
		if !p.at(tkPunct, ";") {
			cond, err := p.expression()
			if err != nil {
				return nil, err
			}
			s.cond = cond
		}
		if _, err := p.expect(tkPunct, ";"); err != nil {
			return nil, err
		}
		if !p.at(tkPunct, ")") {
			post, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			s.post = post
		}
		if _, err := p.expect(tkPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		s.body = body
		return s, nil

	case p.at(tkKeyword, "long") || p.at(tkKeyword, "byte"):
		s, err := p.declStmt()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tkPunct, ";")
		return s, err

	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tkPunct, ";")
		return s, err
	}
}

// condBody parses the "(cond) body" of an if or a while.
func (p *parser) condBody() (cond *expr, body *stmt, err error) {
	if _, err = p.expect(tkPunct, "("); err != nil {
		return nil, nil, err
	}
	if cond, err = p.expression(); err != nil {
		return nil, nil, err
	}
	if _, err = p.expect(tkPunct, ")"); err != nil {
		return nil, nil, err
	}
	body, err = p.statement()
	return cond, body, err
}

func (p *parser) simpleOrDecl() (*stmt, error) {
	if p.at(tkKeyword, "long") || p.at(tkKeyword, "byte") {
		return p.declStmt()
	}
	return p.simpleStmt()
}

func (p *parser) declStmt() (*stmt, error) {
	line := p.cur().line
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(tkIdent, "")
	if err != nil {
		return nil, err
	}
	v := &localVar{name: name.text, typ: typ}
	if err := p.defineLocal(v); err != nil {
		return nil, err
	}
	s := &stmt{kind: stDecl, line: line, local: v}
	if p.accept(tkPunct, "=") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		s.expr = e
	}
	return s, nil
}

func (p *parser) simpleStmt() (*stmt, error) {
	line := p.cur().line
	e, err := p.expression()
	if err != nil {
		return nil, err
	}
	return &stmt{kind: stExpr, line: line, expr: e}, nil
}

// --- expressions (precedence climbing) ---

func (p *parser) expression() (*expr, error) { return p.assignment() }

func (p *parser) assignment() (*expr, error) {
	lhs, err := p.logicalOr()
	if err != nil {
		return nil, err
	}
	line := p.cur().line
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="} {
		if p.accept(tkPunct, op) {
			rhs, err := p.assignment()
			if err != nil {
				return nil, err
			}
			if !isLvalue(lhs) {
				return nil, &Error{File: p.file, Line: line, Msg: "assignment to non-lvalue"}
			}
			if op != "=" {
				rhs = &expr{kind: exBinary, line: line, op: op[:len(op)-1], lhs: lhs, rhs: rhs}
			}
			return &expr{kind: exAssign, line: line, lhs: lhs, rhs: rhs}, nil
		}
	}
	return lhs, nil
}

func isLvalue(e *expr) bool {
	return e.kind == exVar || e.kind == exDeref || e.kind == exIndex
}

// binary level table, loosest first.
var binLevels = [][]string{
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) logicalOr() (*expr, error) {
	lhs, err := p.logicalAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tkPunct, "||") {
		line := p.cur().line
		p.pos++
		rhs, err := p.logicalAnd()
		if err != nil {
			return nil, err
		}
		lhs = &expr{kind: exCond, op: "||", line: line, lhs: lhs, rhs: rhs}
	}
	return lhs, nil
}

func (p *parser) logicalAnd() (*expr, error) {
	lhs, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	for p.at(tkPunct, "&&") {
		line := p.cur().line
		p.pos++
		rhs, err := p.binary(0)
		if err != nil {
			return nil, err
		}
		lhs = &expr{kind: exCond, op: "&&", line: line, lhs: lhs, rhs: rhs}
	}
	return lhs, nil
}

func (p *parser) binary(level int) (*expr, error) {
	if level >= len(binLevels) {
		return p.unary()
	}
	lhs, err := p.binary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range binLevels[level] {
			if p.at(tkPunct, op) {
				line := p.cur().line
				p.pos++
				rhs, err := p.binary(level + 1)
				if err != nil {
					return nil, err
				}
				lhs = &expr{kind: exBinary, op: op, line: line, lhs: lhs, rhs: rhs}
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
	}
}

func (p *parser) unary() (*expr, error) {
	line := p.cur().line
	switch {
	case p.accept(tkPunct, "-"):
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &expr{kind: exUnary, op: "-", line: line, lhs: e}, nil
	case p.accept(tkPunct, "~"):
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &expr{kind: exUnary, op: "~", line: line, lhs: e}, nil
	case p.accept(tkPunct, "!"):
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &expr{kind: exUnary, op: "!", line: line, lhs: e}, nil
	case p.accept(tkPunct, "*"):
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &expr{kind: exDeref, line: line, lhs: e}, nil
	case p.accept(tkPunct, "&"):
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		if e.kind != exVar {
			return nil, &Error{File: p.file, Line: line, Msg: "& is supported on local variables only"}
		}
		return &expr{kind: exAddr, line: line, lhs: e}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (*expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		line := p.cur().line
		switch {
		case p.accept(tkPunct, "["):
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkPunct, "]"); err != nil {
				return nil, err
			}
			e = &expr{kind: exIndex, line: line, lhs: e, rhs: idx}
		case p.at(tkPunct, "(") && e.kind == exGlobal:
			p.pos++
			call := &expr{kind: exCall, line: line, name: e.name}
			for !p.at(tkPunct, ")") {
				if len(call.args) > 0 {
					if _, err := p.expect(tkPunct, ","); err != nil {
						return nil, err
					}
				}
				a, err := p.expression()
				if err != nil {
					return nil, err
				}
				call.args = append(call.args, a)
			}
			if _, err := p.expect(tkPunct, ")"); err != nil {
				return nil, err
			}
			if len(call.args) > 6 {
				return nil, &Error{File: p.file, Line: line, Msg: "at most 6 call arguments are supported"}
			}
			e = call
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (*expr, error) {
	t := p.cur()
	switch {
	case p.accept(tkPunct, "("):
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tkPunct, ")")
		return e, err
	case t.kind == tkNumber:
		p.pos++
		return &expr{kind: exNum, line: t.line, num: t.num}, nil
	case t.kind == tkString:
		p.pos++
		return &expr{kind: exStr, line: t.line, str: t.str}, nil
	case t.kind == tkIdent:
		p.pos++
		if v := p.lookupLocal(t.text); v != nil {
			return &expr{kind: exVar, line: t.line, name: t.text, local: v}, nil
		}
		return &expr{kind: exGlobal, line: t.line, name: t.text}, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

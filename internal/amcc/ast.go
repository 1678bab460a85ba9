package amcc

// Type is the AMC type lattice: 64-bit scalars plus two pointer widths.
type Type int

const (
	TypeLong    Type = iota // 64-bit integer (also the result of all arithmetic)
	TypePtrLong             // long*  (8-byte element)
	TypePtrByte             // byte*  (1-byte element)
	TypeVoid                // function return only
)

// elemSize returns the pointee size for pointer arithmetic.
func (t Type) elemSize() int64 {
	if t == TypePtrLong {
		return 8
	}
	return 1
}

func (t Type) isPtr() bool { return t == TypePtrLong || t == TypePtrByte }

// exprKind enumerates expression nodes.
type exprKind int

const (
	exNum exprKind = iota
	exStr
	exVar    // local variable or parameter
	exGlobal // module-level symbol (defined or extern)
	exUnary
	exBinary
	exAssign
	exCall
	exIndex // base[idx]
	exDeref // *p
	exAddr  // &lvalue
	exCond  // a && b, a || b (short-circuit)
)

type expr struct {
	kind exprKind
	line int

	num  int64
	str  string
	name string // variable / symbol / call target
	op   string

	lhs, rhs *expr
	args     []*expr

	local *localVar // resolved local for exVar
}

// stmtKind enumerates statement nodes.
type stmtKind int

const (
	stExpr stmtKind = iota
	stReturn
	stIf
	stWhile
	stFor
	stBlock
	stDecl
	stBreak
	stContinue
)

type stmt struct {
	kind stmtKind
	line int

	expr       *expr // stExpr, stReturn (may be nil), stDecl initializer
	cond       *expr
	init, post *stmt // for
	body       *stmt
	alt        *stmt // else
	stmts      []*stmt
	local      *localVar // stDecl
}

// localVar is a stack slot.
type localVar struct {
	name   string
	typ    Type
	offset int // sp-relative, assigned at codegen
}

// symbol is a module-level name: a function, a global object, or an extern.
type symbol struct {
	typ      Type // for objects: the pointer type an expression naming it has
	isFunc   bool
	isExtern bool
	retType  Type
	numParam int
}

// function is a parsed function definition.
type function struct {
	name   string
	params []*localVar
	body   *stmt
	locals []*localVar // all locals including params
}

// globalDef is a module-level object definition (rieds only).
type globalDef struct {
	name  string
	count int64 // array length in elements (1 for scalars)
	elem  int64 // element size (8 for long, 1 for byte)
	init  *int64
	line  int
}

// unit is a parsed translation unit.
type unit struct {
	file    string
	funcs   []*function
	globals []*globalDef
	syms    map[string]*symbol
	strs    []string // string literal pool, in emission order
}

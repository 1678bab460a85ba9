package amcc

import (
	"bytes"
	"strings"
	"testing"

	"twochains/internal/elfobj"
	"twochains/internal/linker"
	"twochains/internal/mem"
	"twochains/internal/vm"
)

// host compiles AMC source into a loaded library on a fresh machine.
type host struct {
	as  *mem.AddressSpace
	ns  *linker.Namespace
	vm  *vm.VM
	ld  *linker.Loaded
	out bytes.Buffer
}

func newHost(t *testing.T, src string) *host {
	t.Helper()
	obj, err := Compile("test.amc", src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := linker.LinkLibrary("amcctest", []*elfobj.Object{obj})
	if err != nil {
		t.Fatal(err)
	}
	h := &host{
		as: mem.NewAddressSpace(16 << 20),
		ns: linker.NewNamespace(),
	}
	machine, err := vm.New(h.as, nil, &h.out)
	if err != nil {
		t.Fatal(err)
	}
	h.vm = machine
	if err := vm.BindLibc(machine, h.ns); err != nil {
		t.Fatal(err)
	}
	ld, err := linker.Load(h.as, h.ns, img, linker.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h.ld = ld
	code, err := h.as.ReadBytesDMA(ld.TextVA, ld.TextLen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.AddRegion(ld.TextVA, code, ld.GotVA); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *host) call(t *testing.T, fn string, args ...uint64) uint64 {
	t.Helper()
	va, ok := h.ld.Exports[fn]
	if !ok {
		t.Fatalf("function %q not exported", fn)
	}
	ret, _, err := h.vm.Call(va, args...)
	if err != nil {
		t.Fatalf("%s: %v", fn, err)
	}
	return ret
}

func compileAndRun(t *testing.T, src, fn string, args ...uint64) uint64 {
	t.Helper()
	return newHost(t, src).call(t, fn, args...)
}

func TestArithmetic(t *testing.T) {
	src := `
long calc(long a, long b) {
    return (a + b) * 3 - a / b + a % b;
}
`
	got := compileAndRun(t, src, "calc", 20, 6)
	want := uint64((20+6)*3 - 20/6 + 20%6)
	if got != want {
		t.Fatalf("calc = %d, want %d", got, want)
	}
}

func TestBitwiseAndShifts(t *testing.T) {
	src := `
long bits(long a, long b) {
    return ((a & b) | (a ^ b)) + (a << 3) + (b >> 2) + ~a + !b;
}
`
	a, b := uint64(0xF0F0), uint64(0x0FF3)
	got := compileAndRun(t, src, "bits", a, b)
	want := ((a & b) | (a ^ b)) + (a << 3) + (b >> 2) + ^a + 0
	if got != want {
		t.Fatalf("bits = %#x, want %#x", got, want)
	}
}

func TestComparisonsAndUnary(t *testing.T) {
	src := `
long cmp(long a, long b) {
    long r = 0;
    if (a < b) r = r + 1;
    if (a <= b) r = r + 10;
    if (b > a) r = r + 100;
    if (b >= a) r = r + 1000;
    if (a == a) r = r + 10000;
    if (a != b) r = r + 100000;
    if (-a < 0) r = r + 1000000;
    return r;
}
`
	got := compileAndRun(t, src, "cmp", 3, 7)
	if got != 1111111 {
		t.Fatalf("cmp = %d", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
long sumto(long n) {
    long acc = 0;
    for (long i = 1; i <= n; i = i + 1) {
        if (i % 2 == 0) { acc = acc + i; } else { acc = acc + 2 * i; }
    }
    return acc;
}

long countdown(long n) {
    long steps = 0;
    while (n > 0) {
        n = n - 1;
        steps = steps + 1;
        if (steps > 100) break;
    }
    return steps;
}

long skipper(long n) {
    long acc = 0;
    for (long i = 0; i < n; i = i + 1) {
        if (i % 3 != 0) continue;
        acc = acc + i;
    }
    return acc;
}
`
	var want uint64
	for i := uint64(1); i <= 10; i++ {
		if i%2 == 0 {
			want += i
		} else {
			want += 2 * i
		}
	}
	if got := compileAndRun(t, src, "sumto", 10); got != want {
		t.Fatalf("sumto = %d, want %d", got, want)
	}
	h := newHost(t, src)
	if got := h.call(t, "countdown", 5); got != 5 {
		t.Fatalf("countdown = %d", got)
	}
	if got := h.call(t, "skipper", 10); got != 0+3+6+9 {
		t.Fatalf("skipper = %d", got)
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
long guard(long* p, long x) {
    if (p != 0 && *p == x) return 1;
    return 0;
}
long either(long a, long b) {
    if (a || b) return 1;
    return 0;
}
`
	h := newHost(t, src)
	buf, _ := h.as.Alloc("b", 8, 8, mem.PermRW)
	if err := h.as.WriteU64(buf, 42); err != nil {
		t.Fatal(err)
	}
	if got := h.call(t, "guard", buf, 42); got != 1 {
		t.Fatalf("guard(valid) = %d", got)
	}
	// Null pointer: && must not dereference.
	if got := h.call(t, "guard", 0, 42); got != 0 {
		t.Fatalf("guard(null) = %d", got)
	}
	if got := h.call(t, "either", 0, 5); got != 1 {
		t.Fatalf("either = %d", got)
	}
	if got := h.call(t, "either", 0, 0); got != 0 {
		t.Fatalf("either(0,0) = %d", got)
	}
}

func TestPointersAndIndexing(t *testing.T) {
	src := `
long fill(long* a, long n) {
    for (long i = 0; i < n; i = i + 1) {
        a[i] = i * i;
    }
    return a[n-1];
}
long bytes(byte* p, long n) {
    long acc = 0;
    for (long i = 0; i < n; i = i + 1) {
        acc = acc + p[i];
    }
    return acc;
}
long viaptr(long* p) {
    *p = *p + 7;
    return *(p + 1);
}
`
	h := newHost(t, src)
	arr, _ := h.as.Alloc("arr", 8*16, 8, mem.PermRW)
	if got := h.call(t, "fill", arr, 10); got != 81 {
		t.Fatalf("fill = %d", got)
	}
	v, _ := h.as.ReadU64(arr + 8*4)
	if v != 16 {
		t.Fatalf("a[4] = %d", v)
	}
	bs, _ := h.as.Alloc("bs", 16, 8, mem.PermRW)
	if err := h.as.WriteBytes(bs, []byte{1, 2, 3, 250}); err != nil {
		t.Fatal(err)
	}
	if got := h.call(t, "bytes", bs, 4); got != 256 {
		t.Fatalf("bytes = %d", got)
	}
	if err := h.as.WriteU64(arr, 100); err != nil {
		t.Fatal(err)
	}
	if err := h.as.WriteU64(arr+8, 55); err != nil {
		t.Fatal(err)
	}
	if got := h.call(t, "viaptr", arr); got != 55 {
		t.Fatalf("viaptr = %d", got)
	}
	v, _ = h.as.ReadU64(arr)
	if v != 107 {
		t.Fatalf("*p = %d", v)
	}
}

func TestAddressOfLocal(t *testing.T) {
	src := `
long bump(long* p) { *p = *p + 1; return *p; }
long useAddr(long seed) {
    long x = seed;
    bump(&x);
    bump(&x);
    return x;
}
`
	if got := compileAndRun(t, src, "useAddr", 10); got != 12 {
		t.Fatalf("useAddr = %d", got)
	}
}

func TestLocalCallsAndRecursion(t *testing.T) {
	src := `
long fib(long n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
long twice(long x) { return helper(x) + helper(x); }
long helper(long x) { return x * 10; }
`
	h := newHost(t, src)
	if got := h.call(t, "fib", 12); got != 144 {
		t.Fatalf("fib(12) = %d", got)
	}
	if got := h.call(t, "twice", 3); got != 60 {
		t.Fatalf("twice = %d", got)
	}
}

func TestExternCallAndPrintf(t *testing.T) {
	src := `
extern long printf(byte* fmt, long a, long b);
extern long memcpy(long* dst, long* src, long n);

long report(long a, long b) {
    printf("sum=%d prod=%d\n", a + b, a * b);
    return 0;
}
long copy8(long* dst, long* src) {
    memcpy(dst, src, 8);
    return *dst;
}
`
	h := newHost(t, src)
	h.call(t, "report", 3, 4)
	if h.out.String() != "sum=7 prod=12\n" {
		t.Fatalf("stdout = %q", h.out.String())
	}
	a, _ := h.as.Alloc("a", 8, 8, mem.PermRW)
	b, _ := h.as.Alloc("b", 8, 8, mem.PermRW)
	if err := h.as.WriteU64(b, 777); err != nil {
		t.Fatal(err)
	}
	if got := h.call(t, "copy8", a, b); got != 777 {
		t.Fatalf("copy8 = %d", got)
	}
}

func TestGlobalsInRied(t *testing.T) {
	src := `
long counter = 5;
long table[64];

long tick(void) {
    long* c = counter;
    *c = *c + 1;
    return *c;
}
long put(long i, long v) {
    long* t = table;
    t[i] = v;
    return t[i];
}
`
	h := newHost(t, src)
	if got := h.call(t, "tick"); got != 6 {
		t.Fatalf("tick = %d", got)
	}
	if got := h.call(t, "tick"); got != 7 {
		t.Fatalf("tick2 = %d", got)
	}
	if got := h.call(t, "put", 9, 1234); got != 1234 {
		t.Fatalf("put = %d", got)
	}
}

func TestCompoundAssign(t *testing.T) {
	src := `
long comp(long a) {
    long x = a;
    x += 3; x *= 2; x -= 1; x /= 3; x %= 100;
    x <<= 2; x >>= 1; x &= 0xFF; x |= 0x100; x ^= 0x3;
    return x;
}
`
	x := uint64(10)
	x += 3
	x *= 2
	x -= 1
	x /= 3
	x %= 100
	x <<= 2
	x >>= 1
	x &= 0xFF
	x |= 0x100
	x ^= 0x3
	if got := compileAndRun(t, src, "comp", 10); got != x {
		t.Fatalf("comp = %d, want %d", got, x)
	}
}

func TestBigConstant(t *testing.T) {
	src := `
long big(void) { return 0x9E3779B97F4A7C15; }
`
	if got := compileAndRun(t, src, "big"); got != 0x9E3779B97F4A7C15 {
		t.Fatalf("big = %#x", got)
	}
}

func TestVoidFunction(t *testing.T) {
	src := `
long slot = 0;
void poke(long v) {
    long* s = slot;
    *s = v;
}
long peek(void) {
    long* s = slot;
    return *s;
}
`
	h := newHost(t, src)
	h.call(t, "poke", 99)
	if got := h.call(t, "peek"); got != 99 {
		t.Fatalf("peek = %d", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undeclared", "long f(void){ return ghost; }", "undeclared"},
		{"badAssign", "long f(long a){ 5 = a; return 0; }", "lvalue"},
		{"redeclared", "long f(void){ return 0; }\nlong f(void){ return 1; }", "redeclared"},
		{"breakOutside", "long f(void){ break; return 0; }", "break outside"},
		{"tooManyArgs", "extern long g(long a, long b, long c, long d, long e, long f, long h);", "at most 6"},
		{"externBody", "extern long g(void){ return 1; }", "cannot have a body"},
		{"callArity", "long g(long a){ return a; }\nlong f(void){ return g(1,2); }", "expects 1 arguments"},
		{"fnAsValue", "long g(void){ return 0; }\nlong f(void){ return g; }", "used as a value"},
		{"doubleStar", "long f(long** p){ return 0; }", "indirection"},
		{"bssLength", "long a[0x7fffffffffffffff];", "does not fit"},
		{"bssTotal", "long a[0x1fffffff];\nbyte* b[9];", "does not fit"},
		{"arrayInit", "long a[5] = 7;", "array \"a\" cannot have an initializer"},
		{"longName", "long f" + strings.Repeat("x", 70000) + "(long a) { return a; }", "over the 65535"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.name+".amc", c.src)
			if err == nil {
				t.Fatalf("compiled successfully")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		`long f(void){ return "unterminated; }`,
		"long f(void){ /* unterminated",
		"long f(void){ return 0; } @",
	} {
		if _, err := Compile("bad.amc", src); err == nil {
			t.Fatalf("lexed %q successfully", src)
		}
	}
}

func TestCommentsHandled(t *testing.T) {
	src := `
// line comment
/* block
   comment */
long f(void) {
    return 7; // trailing
}
`
	if got := compileAndRun(t, src, "f"); got != 7 {
		t.Fatalf("f = %d", got)
	}
}

func TestCharLiterals(t *testing.T) {
	src := `
long isUpperA(byte* s) {
    if (*s == 'A') return 1;
    return 0;
}
`
	h := newHost(t, src)
	buf, _ := h.as.Alloc("s", 8, 8, mem.PermRW)
	if err := h.as.WriteBytes(buf, []byte{'A'}); err != nil {
		t.Fatal(err)
	}
	if got := h.call(t, "isUpperA", buf); got != 1 {
		t.Fatalf("isUpperA = %d", got)
	}
}

func TestDeepExpressionRejectedGracefully(t *testing.T) {
	// Deliberately exceed the scratch register budget.
	expr := "a"
	for i := 0; i < 15; i++ {
		expr = "(" + expr + " + (a * (a + 1)"
	}
	for i := 0; i < 15; i++ {
		expr += "))"
	}
	src := "long f(long a){ return " + expr + "; }"
	_, err := Compile("deep.amc", src)
	if err == nil {
		t.Skip("expression fit in scratch registers")
	}
	if !strings.Contains(err.Error(), "too complex") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Package ssa lowers type-checked Go functions into a compact static
// single-assignment form for the lint suite's dataflow analyzers.
//
// The form is deliberately small: it is built per function (closures
// become child functions), models locals as SSA values with phi joins at
// control-flow merges (Braun et al.'s simple construction over an
// explicit CFG), and demotes anything whose address can escape —
// captured variables, address-taken locals, struct locals written
// through selectors, globals — to memory cells accessed by explicit
// Load/Store values. No alias analysis is attempted: a cell is named by
// its declaring types.Object (or, for field paths, the field's
// *types.Var), which is exactly the granularity the determinism
// analyzers need to follow a value from a source call to a sink without
// being defeated by an intermediate variable, loop, or closure.
//
// The builder is total: expressions outside the modeled subset lower to
// OpUnknown values that keep their operands, and unmodeled statements
// havoc the variables they assign. Dataflow over the result therefore
// over-approximates — a finding can be a false positive, suppressed via
// //simlint:allow, but a flow cannot silently disappear.
package ssa

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Op identifies what a Value computes.
type Op uint8

// Value operations. Values form a def-use graph through Args; OpStore,
// OpReturn, and OpSend are effect-only instructions whose Type is nil.
const (
	OpInvalid   Op = iota
	OpParam        // function parameter or receiver; Var names it
	OpConst        // literal or constant-folded expression
	OpGlobal       // address of a package-level var or func reference; Var
	OpCell         // address of a demoted local (captured/address-taken); Var
	OpPhi          // SSA join of Args, one per predecessor edge
	OpBin          // binary operation Args[0] Tok Args[1]
	OpUn           // unary operation Tok Args[0]
	OpConvert      // type conversion or assertion of Args[0]
	OpCall         // call; Args = [receiver?, operands...], Callee if static
	OpExtract      // Index'th result of the multi-result call Args[0]
	OpFieldAddr    // path to field Field of Args[0]
	OpIndexAddr    // path to an element of Args[0] indexed by Args[1]
	OpLoad         // value at path/address Args[0]
	OpStore        // write Args[1] to path/address Args[0]
	OpRecv         // channel receive from Args[0]
	OpRangeKey     // key drawn by a range loop over Args[0]
	OpRangeVal     // value drawn by a range loop over Args[0]
	OpClosure      // function literal; Lit is the child function
	OpComposite    // composite literal of element values Args
	OpReturn       // return Args from the function
	OpSend         // channel send of Args[1] on Args[0]
	OpUnknown      // expression outside the modeled subset; Args kept
)

var opNames = [...]string{
	OpInvalid: "invalid", OpParam: "param", OpConst: "const", OpGlobal: "global",
	OpCell: "cell", OpPhi: "phi", OpBin: "bin", OpUn: "un", OpConvert: "convert",
	OpCall: "call", OpExtract: "extract", OpFieldAddr: "fieldaddr",
	OpIndexAddr: "indexaddr", OpLoad: "load", OpStore: "store", OpRecv: "recv",
	OpRangeKey: "rangekey", OpRangeVal: "rangeval", OpClosure: "closure",
	OpComposite: "composite", OpReturn: "return", OpSend: "send", OpUnknown: "unknown",
}

func (op Op) String() string { return opNames[op] }

// Value is one node of the def-use graph.
type Value struct {
	ID   int
	Op   Op
	Type types.Type // nil for effect-only instructions
	Pos  token.Pos
	Args []*Value

	// Var names the variable of a Param/Global/Cell, or the range
	// variable object of a RangeKey/RangeVal when one is declared.
	Var types.Object
	// Field is the selected field of a FieldAddr.
	Field *types.Var
	// Callee is the static target of a Call (*types.Func or
	// *types.Builtin); nil for calls through function values.
	Callee types.Object
	// Tok is the operator of a Bin/Un.
	Tok token.Token
	// Lit is the constant of an OpConst (may be nil for zero values).
	Lit constant.Value
	// Index selects the Extract'd result.
	Index int
	// Lambda is the child function of a Closure.
	Lambda *Func
	// Loop is the loop-nesting depth at which the value was created.
	Loop int
	// GoCall / DeferCall mark a Call lowered from a go / defer statement.
	GoCall, DeferCall bool
	// RangeMap / RangeChan record what a RangeKey/RangeVal iterates.
	RangeMap, RangeChan bool
	// HasRecv reports that Args[0] of a Call is a method receiver.
	HasRecv bool
}

// String renders a value for debugging and builder tests.
func (v *Value) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d = %s", v.ID, v.Op)
	if v.Tok != token.ILLEGAL && (v.Op == OpBin || v.Op == OpUn) {
		fmt.Fprintf(&b, " %s", v.Tok)
	}
	if v.Var != nil {
		fmt.Fprintf(&b, " %s", v.Var.Name())
	}
	if v.Field != nil {
		fmt.Fprintf(&b, " .%s", v.Field.Name())
	}
	if v.Callee != nil {
		fmt.Fprintf(&b, " %s", calleeName(v.Callee))
	}
	if v.Lit != nil {
		fmt.Fprintf(&b, " %s", v.Lit.ExactString())
	}
	for _, a := range v.Args {
		fmt.Fprintf(&b, " v%d", a.ID)
	}
	return b.String()
}

func calleeName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	return obj.Name()
}

// Block is one basic block of a function's CFG.
type Block struct {
	Index  int
	Values []*Value // in program order; effect instructions included
	Preds  []*Block
	Succs  []*Block
}

// Func is one lowered function: a declared function or method, or a
// function literal (whose Parent is the enclosing Func).
type Func struct {
	// Name renders the function for diagnostics: "Send",
	// "(*HCA).RDMAWrite", or "RDMAWrite$1" for literals.
	Name string
	Pos  token.Pos
	// Decl / Lit is the AST origin; exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Recv is the receiver parameter, nil for non-methods.
	Recv *Value
	// Params are the declared parameters in order (receiver excluded).
	Params []*Value
	// Blocks is the CFG; Blocks[0] is the entry block.
	Blocks []*Block
	// Parent is the enclosing function of a literal, nil at top level.
	Parent *Func
	// Anons are the child functions lowered from literals, in order.
	Anons []*Func
	// Imprecise reports that an unmodeled construct (goto) forced the
	// builder to approximate control flow.
	Imprecise bool

	nvalues int
}

// AllValues visits every value of the function in block order.
func (f *Func) AllValues(visit func(*Value)) {
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			visit(v)
		}
	}
}

// Tree visits f and every transitively nested function literal.
func (f *Func) Tree(visit func(*Func)) {
	visit(f)
	for _, a := range f.Anons {
		a.Tree(visit)
	}
}

// Leaves visits the transitive leaf operands of v through pure
// (side-effect-free) ops: Bin, Un, Convert, FieldAddr, IndexAddr,
// Extract, Composite. Loads, calls, phis, params, and constants are
// leaves.
func Leaves(v *Value, visit func(*Value)) {
	seen := map[*Value]bool{}
	var walk func(v *Value)
	walk = func(v *Value) {
		if seen[v] {
			return
		}
		seen[v] = true
		switch v.Op {
		case OpBin, OpUn, OpConvert, OpFieldAddr, OpIndexAddr, OpExtract, OpComposite:
			for _, a := range v.Args {
				walk(a)
			}
		default:
			visit(v)
		}
	}
	walk(v)
}

// Equal reports whether two values provably compute the same result:
// identical defs, or structurally equal trees of pure operations over
// equal leaves. Calls, loads, receives, and phis are equal only to
// themselves (their results can differ per execution).
func Equal(a, b *Value) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Op != b.Op || a.Tok != b.Tok ||
		a.Var != b.Var || a.Field != b.Field || a.Index != b.Index {
		return false
	}
	switch a.Op {
	case OpConst:
		if a.Lit == nil || b.Lit == nil {
			return a.Lit == b.Lit && types.Identical(a.Type, b.Type)
		}
		return constant.Compare(a.Lit, token.EQL, b.Lit)
	case OpParam, OpGlobal, OpCell:
		return a.Var == b.Var && a.Var != nil
	case OpBin, OpUn, OpConvert, OpFieldAddr, OpIndexAddr, OpExtract, OpComposite:
		if len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !Equal(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false // calls, loads, phis, recvs: instance identity only
	}
}

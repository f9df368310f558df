package ssa

import "go/types"

// Taint is the result of a forward taint propagation over a set of
// functions. Taint flows through values (the def-use graph) and through
// memory cells: a store of a tainted value marks both the stored field
// and the root variable of the destination path, so a flow survives
// round trips through locals, struct fields, and closures.
type Taint struct {
	vals   map[*Value]bool
	objs   map[types.Object]bool
	fields map[*types.Var]bool
}

// Value reports whether v carries taint.
func (t *Taint) Value(v *Value) bool { return t.vals[v] }

// PathKeys walks an address path to the directly addressed field (the
// innermost FieldAddr, if any) and the root variable the path starts
// from (nil when rooted at a call result or other anonymous value).
func PathKeys(addr *Value) (field *types.Var, root types.Object) {
	for addr != nil {
		switch addr.Op {
		case OpFieldAddr:
			if field == nil {
				field = addr.Field
			}
			addr = arg0(addr)
		case OpIndexAddr, OpLoad, OpConvert, OpUn:
			addr = arg0(addr)
		case OpCell, OpParam, OpGlobal:
			return field, addr.Var
		default:
			return field, nil
		}
	}
	return field, nil
}

func isStructType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Struct)
	return ok
}

func arg0(v *Value) *Value {
	if len(v.Args) == 0 {
		return nil
	}
	return v.Args[0]
}

// Propagate runs taint to a fixpoint over funcs (each visited with its
// whole closure tree). isSource marks the values that originate taint.
// propagateCall decides whether a call forwards taint from arguments to
// its result (nil means no call propagates).
func Propagate(funcs []*Func, isSource func(*Value) bool, propagateCall func(*Value) bool) *Taint {
	t := &Taint{
		vals:   map[*Value]bool{},
		objs:   map[types.Object]bool{},
		fields: map[*types.Var]bool{},
	}
	var all []*Func
	for _, f := range funcs {
		f.Tree(func(fn *Func) { all = append(all, fn) })
	}
	anyArg := func(v *Value) bool {
		for _, a := range v.Args {
			if t.vals[a] {
				return true
			}
		}
		return false
	}
	mark := func(v *Value) bool {
		if t.vals[v] {
			return false
		}
		t.vals[v] = true
		return true
	}
	for {
		changed := false
		for _, f := range all {
			f.AllValues(func(v *Value) {
				switch v.Op {
				case OpStore:
					// Field-keyed when the path names a field, root-keyed
					// for plain variable cells. Tainting the root object
					// as well would contaminate every other field of the
					// struct.
					if len(v.Args) == 2 && t.vals[v.Args[1]] {
						field, root := PathKeys(v.Args[0])
						switch {
						case field != nil:
							if !t.fields[field] {
								t.fields[field] = true
								changed = true
							}
						case root != nil:
							if !t.objs[root] {
								t.objs[root] = true
								changed = true
							}
						}
					}
					return
				case OpReturn:
					return
				}
				if t.vals[v] {
					return
				}
				tainted := false
				switch {
				case isSource != nil && isSource(v):
					tainted = true
				case v.Op == OpCall:
					tainted = propagateCall != nil && propagateCall(v) && anyArg(v)
				case v.Op == OpLoad:
					field, root := PathKeys(v)
					if field != nil {
						tainted = anyArg(v) || t.fields[field]
					} else {
						tainted = anyArg(v) || (root != nil && t.objs[root])
					}
				case v.Op == OpCell, v.Op == OpParam, v.Op == OpGlobal:
					tainted = v.Var != nil && t.objs[v.Var]
				case v.Op == OpConst, v.Op == OpClosure:
					tainted = false
				case v.Op == OpComposite && isStructType(v.Type):
					// Struct literals carry their element taint through the
					// synthetic field stores the builder emits; tainting the
					// whole value would contaminate every sibling field.
					tainted = false
				default:
					// Bin, Un, Convert, Phi, Extract, Composite, Recv,
					// RangeKey, RangeVal, Send, FieldAddr, IndexAddr,
					// Unknown: any tainted operand taints the result.
					tainted = anyArg(v)
				}
				if tainted && mark(v) {
					changed = true
				}
			})
		}
		if !changed {
			return t
		}
	}
}

package core

import (
	"fmt"
	"math"
	"reflect"
)

// CanonicalHash returns a 64-bit FNV-1a digest of the configuration's
// complete simulation-relevant state: every exported field, recursively,
// in declaration order, each value prefixed with its reflect.Kind so that
// adjacent fields can never alias (e.g. int 1 followed by int 2 hashes
// differently from int 12 followed by nothing). Two configs with equal
// hashable state hash equal, so the autotuner (internal/search) can key
// its memo table on the digest; hash_test.go proves by field perturbation
// that every exported field changes the digest, so memoization can never
// alias distinct design points.
//
// Func- and Interface-typed fields (the ComputeHook instrumentation hook
// and the Trace sink) are skipped: they carry no simulation semantics and
// have no canonical encoding. Any other non-scalar kind panics, so a
// future Config field of an unhashable type fails loudly instead of
// silently aliasing.
//
// The fields are read in place through a plan built once from Config's
// type, so a call neither walks the type nor copies the configuration.
func (c *Config) CanonicalHash() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	v := reflect.ValueOf(c).Elem()
	for _, st := range configPlan {
		h = hashByte(h, byte(st.kind))
		if st.index != nil {
			h = hashLeaf(h, v.FieldByIndex(st.index))
		}
	}
	return h
}

// hashStep is one step of the digest's encoding of Config, in declaration
// order: entering a struct (index nil) writes its kind byte; a scalar
// field writes its kind byte, then its value.
type hashStep struct {
	kind  reflect.Kind
	index []int // field index path from Config, for FieldByIndex
}

// configPlan is Config's encoding, built once at package initialization.
var configPlan = planFor(reflect.TypeOf(Config{}), nil, nil)

// hashableConfigSkips names the Config fields CanonicalHash may skip.
// planFor panics on a Func/Interface field not listed here, so skipped
// state is always a reviewed decision.
var hashableConfigSkips = map[string]bool{
	"ComputeHook": true,
	"Trace":       true,
}

// planFor appends the encoding of a value of type t, reached from Config
// through index, to plan.
func planFor(t reflect.Type, index []int, plan []hashStep) []hashStep {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		return append(plan, hashStep{kind: t.Kind(), index: index})
	case reflect.Struct:
		plan = append(plan, hashStep{kind: reflect.Struct})
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			switch f.Type.Kind() {
			case reflect.Func, reflect.Interface:
				if !hashableConfigSkips[f.Name] {
					panic(fmt.Sprintf("core: CanonicalHash cannot encode field %s.%s of kind %s",
						t.Name(), f.Name, f.Type.Kind()))
				}
				continue
			}
			plan = planFor(f.Type, append(index[:len(index):len(index)], i), plan)
		}
		return plan
	default:
		panic(fmt.Sprintf("core: CanonicalHash cannot encode kind %s (%s)", t.Kind(), t))
	}
}

// hashLeaf hashes one scalar field's value.
func hashLeaf(h uint64, v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return hashByte(h, 1)
		}
		return hashByte(h, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return hashUint64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return hashUint64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		return hashUint64(h, math.Float64bits(v.Float()))
	default: // reflect.String, the only other kind planFor admits
		s := v.String()
		h = hashUint64(h, uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h = hashByte(h, s[i])
		}
		return h
	}
}

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * 1099511628211 // FNV-1a prime
}

func hashUint64(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(x>>(8*i)))
	}
	return h
}

// Package keycheck holds a content-addressed cache key to the struct
// it canonicalizes: every leaf field must either move the key or sit
// on an explicit exclusion list with a reason. Key owners call Fields
// from their tests, so a field added to a request, spec or technology
// struct without a keying decision fails the build's tests instead of
// silently sharing cache entries between different inputs.
package keycheck

import (
	"reflect"
	"sort"
	"testing"
)

// Fields probes every leaf field of T — nested structs and the
// elements of struct slices included, named by dotted path with "[]"
// for slice elements (e.g. "Layers[].Pitch") — by perturbing it in a
// copy of each base and recomputing key. A field must move the key
// from at least one base, or be named in excluded (path → reason), in
// which case it must move the key from none. Excluded paths that name
// no field fail too, so the list cannot go stale.
func Fields[T any](t testing.TB, bases []T, key func(T) string, excluded map[string]string) {
	t.Helper()
	moved := map[string]bool{}
	for _, base := range bases {
		want := key(base)
		root := reflect.ValueOf(&base).Elem()
		var out []leaf
		leaves(root, "", nil, &out)
		for _, l := range out {
			if _, ok := moved[l.path]; !ok {
				moved[l.path] = false
			}
			vals := probes(l.at(root))
			if vals == nil {
				t.Errorf("keycheck: field %s has a kind (%s) the probe cannot perturb; key it by hand and exclude it",
					l.path, l.at(root).Kind())
				continue
			}
			for _, v := range vals {
				c := clone(root)
				f := l.at(c)
				if !f.CanSet() {
					t.Errorf("keycheck: field %s cannot be set from outside its package", l.path)
					break
				}
				f.Set(v)
				if key(c.Interface().(T)) != want {
					moved[l.path] = true
				}
			}
		}
	}
	paths := make([]string, 0, len(moved))
	for p := range moved {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		reason, skip := excluded[p]
		switch {
		case skip && moved[p]:
			t.Errorf("keycheck: field %s moves the key but is excluded (%s); drop the exclusion", p, reason)
		case !skip && !moved[p]:
			t.Errorf("keycheck: field %s reaches no key: key it, or exclude it with a one-line reason", p)
		}
	}
	for p := range excluded {
		if _, ok := moved[p]; !ok {
			t.Errorf("keycheck: exclusion %q names no field", p)
		}
	}
}

// leaf is one probed field: its display path and the field/element
// indices leading to it from the root.
type leaf struct {
	path string
	idx  []int
}

// at walks v (a struct) down the leaf's index path.
func (l leaf) at(v reflect.Value) reflect.Value {
	for _, i := range l.idx {
		if v.Kind() == reflect.Slice {
			v = v.Index(i)
		} else {
			v = v.Field(i)
		}
	}
	return v
}

func leaves(v reflect.Value, path string, idx []int, out *[]leaf) {
	switch {
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			leaves(v.Field(i), name, append(idx[:len(idx):len(idx)], i), out)
		}
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Struct:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), path+"[]", append(idx[:len(idx):len(idx)], i), out)
		}
	default:
		*out = append(*out, leaf{path: path, idx: idx})
	}
}

// probes returns perturbed copies of a scalar field; nil for kinds it
// does not cover. Integers try several steps because canonicalization
// folds some values together (max_parallel 1 means 0).
func probes(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	add := func(set func(p reflect.Value)) {
		p := reflect.New(v.Type()).Elem()
		set(p)
		out = append(out, p)
	}
	switch v.Kind() {
	case reflect.Bool:
		add(func(p reflect.Value) { p.SetBool(!v.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		for d := int64(1); d <= 3; d++ {
			add(func(p reflect.Value) { p.SetInt(v.Int() + d) })
		}
	case reflect.Float32, reflect.Float64:
		add(func(p reflect.Value) { p.SetFloat(v.Float()*1.5 + 0.25) })
	case reflect.String:
		add(func(p reflect.Value) { p.SetString(v.String() + "probe") })
	}
	return out
}

// clone deep-copies v, slices included, so probing never aliases the
// base.
func clone(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	out.Set(v)
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := out.Field(i); f.CanSet() {
				f.Set(clone(v.Field(i)))
			}
		}
	case reflect.Slice:
		if !v.IsNil() {
			s := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			for i := 0; i < v.Len(); i++ {
				s.Index(i).Set(clone(v.Index(i)))
			}
			out.Set(s)
		}
	}
	return out
}

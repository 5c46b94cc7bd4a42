package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"io"
	"sort"
)

// Fact is a serializable statement an analyzer proves about a package
// object (a function, a field, a type) and exports for dependent
// packages: "this function is hotpath-annotated", "this field is accessed
// atomically". Concrete fact types are plain JSON-marshalable structs.
type Fact interface{ AFact() }

// FactSet is the facts of one package: analyzer name -> object path ->
// encoded fact. It serializes to the .vetx file the go vet driver caches
// between runs, and lives in memory for the analysistest harness.
type FactSet struct {
	Version int                                   `json:"version"`
	Facts   map[string]map[string]json.RawMessage `json:"facts,omitempty"`
}

// NewFactSet returns an empty fact table.
func NewFactSet() *FactSet {
	return &FactSet{Version: 1, Facts: map[string]map[string]json.RawMessage{}}
}

// DecodeFacts reads a serialized FactSet.
func DecodeFacts(r io.Reader) (*FactSet, error) {
	var fs FactSet
	if err := json.NewDecoder(r).Decode(&fs); err != nil {
		return nil, err
	}
	return &fs, nil
}

// Encode writes the set in a deterministic order (the go vet driver
// content-hashes vetx files for caching, so ordering must be stable).
func (fs *FactSet) Encode(w io.Writer) error {
	type objFact struct {
		Object string          `json:"object"`
		Fact   json.RawMessage `json:"fact"`
	}
	out := struct {
		Version int                  `json:"version"`
		Facts   map[string][]objFact `json:"facts,omitempty"`
	}{Version: 1}
	if len(fs.Facts) > 0 {
		out.Facts = map[string][]objFact{}
		for an, objs := range fs.Facts {
			var l []objFact
			for path, raw := range objs {
				l = append(l, objFact{path, raw})
			}
			sort.Slice(l, func(i, j int) bool { return l[i].Object < l[j].Object })
			out.Facts[an] = l
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// DecodeFactsFile reads either the map form (in-memory round trips) or
// the list form Encode writes.
func DecodeFactsFile(r io.Reader) (*FactSet, error) {
	var raw struct {
		Version int                        `json:"version"`
		Facts   map[string]json.RawMessage `json:"facts"`
	}
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, err
	}
	fs := NewFactSet()
	for an, blob := range raw.Facts {
		var list []struct {
			Object string          `json:"object"`
			Fact   json.RawMessage `json:"fact"`
		}
		if err := json.Unmarshal(blob, &list); err == nil {
			m := map[string]json.RawMessage{}
			for _, of := range list {
				m[of.Object] = of.Fact
			}
			fs.Facts[an] = m
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("facts for %s: %w", an, err)
		}
		fs.Facts[an] = m
	}
	return fs, nil
}

// ObjectPath encodes a package-level object (or a field/method of a
// package-level named type) as a stable string: "F" for a top-level
// func/var/type, "T.M" for a method, "T.f" for a struct field. It returns
// "" for objects the scheme cannot name (locals, fields of anonymous
// structs), which simply cannot carry facts.
func ObjectPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if !ok {
			return ""
		}
		if recv := sig.Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return ""
			}
			return named.Obj().Name() + "." + o.Name()
		}
		if o.Parent() != o.Pkg().Scope() {
			return ""
		}
		return o.Name()
	case *types.Var:
		if !o.IsField() {
			if o.Parent() != o.Pkg().Scope() {
				return ""
			}
			return o.Name()
		}
		// A field: find the package-level named struct that declares it.
		if owner := fieldOwner(o); owner != "" {
			return owner + "." + o.Name()
		}
		return ""
	case *types.TypeName:
		if o.Parent() != o.Pkg().Scope() {
			return ""
		}
		return o.Name()
	}
	return ""
}

// fieldOwner scans the package scope of the field's package for the named
// struct type declaring exactly this field object.
func fieldOwner(field *types.Var) string {
	scope := field.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return name
			}
		}
	}
	return ""
}

// namedOf unwraps pointers and generic instantiations down to the
// defining *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Origin()
		default:
			return nil
		}
	}
}

// ExportObjectFact records fact about obj, which must belong to the pass's
// package; objects the path scheme cannot name are silently skipped.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil || obj.Pkg() != p.Pkg {
		return
	}
	path := ObjectPath(obj)
	if path == "" {
		return
	}
	raw, err := json.Marshal(fact)
	if err != nil {
		return
	}
	m := p.facts.Facts[p.Analyzer.Name]
	if m == nil {
		m = map[string]json.RawMessage{}
		p.facts.Facts[p.Analyzer.Name] = m
	}
	m[path] = raw
}

// ImportObjectFact loads the fact this analyzer exported for obj — from
// the current package's own table when obj is local, or from the imported
// package's table otherwise — into fact, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := ObjectPath(obj)
	if path == "" {
		return false
	}
	var fs *FactSet
	if obj.Pkg() == p.Pkg {
		fs = p.facts
	} else if p.importedFacts != nil {
		fs = p.importedFacts(obj.Pkg().Path())
	}
	if fs == nil {
		return false
	}
	raw, ok := fs.Facts[p.Analyzer.Name][path]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, fact) == nil
}

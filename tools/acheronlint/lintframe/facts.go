package lintframe

import (
	"encoding/json"
	"fmt"
	"sort"
)

// PackageFact is one exported, serializable fact about a package: a
// string-keyed summary another package's analysis can consume without
// loading this package's source. The acheronlint facts are deliberately
// name-keyed (canonical "pkg.Type.field" / "pkg.Func" strings) rather than
// types.Object-keyed: that sidesteps the object-resolution machinery the
// x/tools fact system needs and keeps the encoding a flat JSON list.
//
// Examples:
//
//	{Analyzer: "lockorder",  Kind: "acquires",    Object: "manifest.VersionSet.Close", Data: "manifest.VersionSet.commitMu"}
//	{Analyzer: "lockorder",  Kind: "order",       Data: "core.commitPipeline.commitMu<core.DB.mu"}
//	{Analyzer: "atomicmix",  Kind: "atomicfield", Object: "core.commitPipeline.visible"}
//	{Analyzer: "condloop",   Kind: "condmutex",   Object: "core.DB.stallCond", Data: "core.DB.mu"}
type PackageFact struct {
	// Analyzer is the name of the analyzer that exported the fact; facts
	// are only visible to the same analyzer in downstream packages.
	Analyzer string `json:"analyzer"`
	// Object is the canonical name of the declaration the fact describes
	// (may be empty for package-wide facts such as declared lock orders).
	Object string `json:"object,omitempty"`
	// Kind is the analyzer-specific fact kind.
	Kind string `json:"kind"`
	// Data is the analyzer-specific payload.
	Data string `json:"data,omitempty"`
}

// FactStore accumulates package facts across a driver run. The unitchecker
// driver fills it from the .vetx files of the unit's dependencies and
// serializes the current package's facts into its own .vetx output.
type FactStore struct {
	byPkg map[string][]PackageFact
	order []string // insertion order, for deterministic iteration
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{byPkg: make(map[string][]PackageFact)}
}

// add records one fact for pkgPath.
func (s *FactStore) add(pkgPath string, f PackageFact) {
	if _, ok := s.byPkg[pkgPath]; !ok {
		s.order = append(s.order, pkgPath)
	}
	s.byPkg[pkgPath] = append(s.byPkg[pkgPath], f)
}

// PackageFacts returns the facts recorded for one package.
func (s *FactStore) PackageFacts(pkgPath string) []PackageFact {
	return s.byPkg[pkgPath]
}

// EncodePackage serializes one package's facts (the .vetx payload).
func (s *FactStore) EncodePackage(pkgPath string) ([]byte, error) {
	facts := append([]PackageFact(nil), s.byPkg[pkgPath]...)
	sort.Slice(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Data < b.Data
	})
	return json.Marshal(facts)
}

// DecodePackage merges a serialized fact list into the store under pkgPath.
// Empty payloads (packages that exported nothing, or pre-facts vetx stubs)
// decode to no facts.
func (s *FactStore) DecodePackage(pkgPath string, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var facts []PackageFact
	if err := json.Unmarshal(data, &facts); err != nil {
		return fmt.Errorf("decoding facts for %s: %w", pkgPath, err)
	}
	for _, f := range facts {
		s.add(pkgPath, f)
	}
	return nil
}

// ExportFact records a fact about the current package, visible to the same
// analyzer when it later analyzes a package that (transitively) imports
// this one.
func (p *Pass) ExportFact(object, kind, data string) {
	if p.facts == nil || p.Pkg == nil {
		return
	}
	p.facts.add(p.Pkg.Path(), PackageFact{
		Analyzer: p.Analyzer.Name,
		Object:   object,
		Kind:     kind,
		Data:     data,
	})
}

// ImportedFacts returns every fact of the given kind exported by this
// analyzer for packages other than the one under analysis: under go vet,
// the dependencies whose .vetx files the go command handed this unit.
func (p *Pass) ImportedFacts(kind string) []PackageFact {
	if p.facts == nil {
		return nil
	}
	self := ""
	if p.Pkg != nil {
		self = p.Pkg.Path()
	}
	var out []PackageFact
	for _, pkg := range p.facts.order {
		if pkg == self {
			continue
		}
		for _, f := range p.facts.byPkg[pkg] {
			if f.Analyzer == p.Analyzer.Name && f.Kind == kind {
				out = append(out, f)
			}
		}
	}
	return out
}

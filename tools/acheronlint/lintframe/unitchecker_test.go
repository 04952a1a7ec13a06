package lintframe_test

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/tools/acheronlint/analyzers/rawkeycompare"
	"repro/tools/acheronlint/lintframe"
)

// unit is the part of a vet config the go command writes for one package
// that these tests set.
type unit struct {
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// runUnit writes src as p.go and u as the vet config in a temp dir, runs
// the unit with rawkeycompare, and returns the exit code, what the unit
// printed and the path of its VetxOutput.
func runUnit(t *testing.T, u unit, src string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	u.Compiler, u.Dir, u.ImportPath, u.GoFiles = "gc", dir, "p", []string{"p.go"}
	u.VetxOutput = filepath.Join(dir, "vet.out")
	cfg, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, cfg, 0o666); err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	code := lintframe.UnitcheckerMain(cfgPath, []*lintframe.Analyzer{rawkeycompare.Analyzer})
	os.Stderr = stderr
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), u.VetxOutput
}

// bytesExport returns the export data file of package bytes, as the go
// command would list it in a unit's PackageFile map.
func bytesExport(t *testing.T) string {
	t.Helper()
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	out, err := exec.Command(gocmd, "list", "-export", "-f", "{{.Export}}", "bytes").Output()
	if err != nil {
		t.Fatalf("go list -export bytes: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// assertEmptyVetx checks that the unit wrote its VetxOutput and left it
// empty: no analyzer exports facts.
func assertEmptyVetx(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("VetxOutput not written: %v", err)
	}
	if len(data) != 0 {
		t.Fatalf("VetxOutput holds %d bytes, want none", len(data))
	}
}

func TestUnitVetxOnlyIsNotLoaded(t *testing.T) {
	// The file does not parse, so a unit that loaded it would fail.
	code, out, vetx := runUnit(t, unit{VetxOnly: true}, "this is not Go\n")
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	assertEmptyVetx(t, vetx)
}

const compareSrc = `package p

import "bytes"

func same(a, b []byte) bool {
%s	return bytes.Equal(a, b)
}
`

func TestUnitFindingExits2(t *testing.T) {
	u := unit{PackageFile: map[string]string{"bytes": bytesExport(t)}}
	code, out, _ := runUnit(t, u, strings.Replace(compareSrc, "%s", "", 1))
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "p.go:6:") || !strings.Contains(out, "[rawkeycompare] bytes.Equal") {
		t.Fatalf("output does not report the finding at p.go:6:\n%s", out)
	}
}

func TestUnitIgnoredFindingExits0(t *testing.T) {
	u := unit{PackageFile: map[string]string{"bytes": bytesExport(t)}}
	directive := "\t//lint:ignore rawkeycompare the operands are checksums, not keys\n"
	code, out, vetx := runUnit(t, u, strings.Replace(compareSrc, "%s", directive, 1))
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	assertEmptyVetx(t, vetx)
}

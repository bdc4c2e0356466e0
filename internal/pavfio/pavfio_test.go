package pavfio

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seqavf/internal/core"
)

const sampleTable = `# measured on tinycore
R RegFile.rd0 0.125
R RegFile.rd1 0.0625
W RegFile.wr0 0.25
S RegFile 0.5
S IMem 1
`

func TestParseSample(t *testing.T) {
	in, err := Parse("sample", strings.NewReader(sampleTable))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.ReadPorts[core.StructPort{Struct: "RegFile", Port: "rd0"}]; got != 0.125 {
		t.Fatalf("rd0 = %v", got)
	}
	if got := in.WritePorts[core.StructPort{Struct: "RegFile", Port: "wr0"}]; got != 0.25 {
		t.Fatalf("wr0 = %v", got)
	}
	if got := in.StructAVF["IMem"]; got != 1 {
		t.Fatalf("IMem = %v", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, table, wantErr string
	}{
		{"arity", "R RegFile.rd0\n", "want '<R|W|S>"},
		{"badValue", "R RegFile.rd0 zebra\n", "bad value"},
		{"nan", "R RegFile.rd0 NaN\n", "out of [0,1]"},
		{"inf", "W RegFile.wr0 +Inf\n", "out of [0,1]"},
		{"negative", "S RegFile -0.1\n", "out of [0,1]"},
		{"above1", "S RegFile 1.5\n", "out of [0,1]"},
		{"duplicate", "R A.p 0.1\nR A.p 0.2\n", "duplicate"},
		{"noDot", "R RegFile 0.1\n", "not Struct.port"},
		{"unknown", "X RegFile.rd0 0.1\n", "unknown record"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("t", strings.NewReader(tc.table))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseLineTooLong(t *testing.T) {
	long := "# " + strings.Repeat("x", MaxLineBytes+1)
	_, err := Parse("t", strings.NewReader(long))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	in, err := Parse("sample", strings.NewReader(sampleTable))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	n, err := Write(&b, in)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("wrote %d lines, want 5", n)
	}
	back, err := Parse("roundtrip", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, back) {
		t.Fatalf("round trip mismatch:\n%v\n%v", in, back)
	}
}

func TestReadDir(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"b.pavf", "a.pavf"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(sampleTable), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadDir(dir, "*.pavf")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("workloads = %+v", got)
	}
	if _, err := ReadDir(dir, "*.nope"); err == nil {
		t.Fatal("empty match set accepted")
	}
}

func TestReadDirAmbiguousNames(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"md5.pavf", "md5.txt"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(sampleTable), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadDir(dir, "md5.*"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.pavf")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestPAVFRoundTrip(t *testing.T) {
	in := core.NewInputs()
	in.ReadPorts[core.StructPort{Struct: "ROB", Port: "rd0"}] = 0.25
	in.WritePorts[core.StructPort{Struct: "ROB", Port: "wr0"}] = 0.125
	in.StructAVF["ROB"] = 0.5

	var sb strings.Builder
	n, err := Write(&sb, in)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if n != 3 {
		t.Fatalf("Write wrote %d lines, want 3", n)
	}
	path := filepath.Join(t.TempDir(), "pavf.txt")
	if err := os.WriteFile(path, []byte("# comment\n\n"+sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if v := got.ReadPorts[core.StructPort{Struct: "ROB", Port: "rd0"}]; v != 0.25 {
		t.Errorf("read port = %v, want 0.25", v)
	}
	if v := got.WritePorts[core.StructPort{Struct: "ROB", Port: "wr0"}]; v != 0.125 {
		t.Errorf("write port = %v, want 0.125", v)
	}
	if v := got.StructAVF["ROB"]; v != 0.5 {
		t.Errorf("struct AVF = %v, want 0.5", v)
	}
}

func TestReadPAVFErrors(t *testing.T) {
	for name, body := range map[string]string{
		"short line": "R only\n",
		"bad value":  "R ROB.rd0 zero\n",
		"bad port":   "R ROBrd0 0.5\n",
		"bad record": "X ROB.rd0 0.5\n",
	} {
		path := filepath.Join(t.TempDir(), "bad.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Errorf("%s: ReadFile accepted %q", name, body)
		}
	}
}

// TestParsePAVFRejectsBadValues: AVFs are probabilities. Every non-finite
// or out-of-[0,1] value must be rejected with a file:line error — a single
// accepted NaN poisons the capped sum of every node the port reaches.
func TestParsePAVFRejectsBadValues(t *testing.T) {
	cases := []struct {
		name  string
		table string
		want  string // substring of the error
	}{
		{"NaN read", "R IQ.rd NaN\n", "IQ-nan:1"},
		{"NaN struct", "S IQ nan\n", "IQ-nan:1"},
		{"+Inf", "W IQ.wr +Inf\n", "IQ-nan:1"},
		{"-Inf", "R IQ.rd -Inf\n", "IQ-nan:1"},
		{"negative", "R IQ.rd -0.001\n", "IQ-nan:1"},
		{"above one", "# ok\nW IQ.wr 1.000001\n", "IQ-nan:2"},
		{"huge exponent", "S IQ 1e300\n", "IQ-nan:1"},
		{"negative zero ok", "R IQ.rd -0.0\n", ""},
		{"exact one ok", "R IQ.rd 1\nW IQ.wr 0\nS IQ 1.0\n", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("IQ-nan", strings.NewReader(tc.table))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected valid table %q: %v", tc.table, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted %q", tc.table)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not carry file:line %q", err, tc.want)
			}
		})
	}
}

// TestParsePAVFRejectsDuplicates: a port or structure measured twice in one
// table is a merge mistake, not a legitimate override.
func TestParsePAVFRejectsDuplicates(t *testing.T) {
	cases := []struct {
		name  string
		table string
	}{
		{"duplicate R", "R IQ.rd 0.5\nR IQ.rd 0.25\n"},
		{"duplicate W", "W IQ.wr 0.5\n# noise\nW IQ.wr 0.5\n"},
		{"duplicate S", "S IQ 0.5\nS IQ 0.5\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("dup", strings.NewReader(tc.table))
			if err == nil {
				t.Fatalf("accepted table with %s", tc.name)
			}
			if !strings.Contains(err.Error(), "duplicate") || !strings.Contains(err.Error(), "line 1") {
				t.Fatalf("error %q does not report the duplicate and its first line", err)
			}
		})
	}
	// Same port name under different record kinds is legitimate: R and W
	// index different tables, and S shares the struct's bare name.
	if _, err := Parse("ok", strings.NewReader("R IQ.rd 0.5\nW IQ.rd 0.5\nS IQ.rd 0.5\n")); err != nil {
		t.Fatalf("rejected distinct record kinds for one name: %v", err)
	}
}

// TestParsePAVFLongLines: table lines past bufio.Scanner's 64KB default
// must parse (machine-generated hierarchical port names get long), and
// lines past the 4MB cap must fail with an error naming the file — not
// the opaque "token too long".
func TestParsePAVFLongLines(t *testing.T) {
	longPort := "TOP." + strings.Repeat("x", 100*1024)
	in, err := Parse("long", strings.NewReader("R "+longPort+" 0.5\n"))
	if err != nil {
		t.Fatalf("100KB line rejected: %v", err)
	}
	if len(in.ReadPorts) != 1 {
		t.Fatalf("100KB line parsed to %d ports, want 1", len(in.ReadPorts))
	}

	huge := "R TOP." + strings.Repeat("y", MaxLineBytes) + " 0.5\n"
	_, err = Parse("huge", strings.NewReader(huge))
	if err == nil {
		t.Fatal("accepted a line beyond the scanner cap")
	}
	if !strings.Contains(err.Error(), "huge:") || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize-line error %q does not name the file and the limit", err)
	}
}

// TestReadPAVFDirNameCollision: md5.pavf and md5.txt both strip to
// workload "md5"; the sweep must refuse the ambiguity instead of emitting
// two rows with one name.
func TestReadPAVFDirNameCollision(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"md5.pavf", "md5.txt", "zlib.pavf"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("R IQ.rd 0.5\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := ReadDir(dir, "*")
	if err == nil {
		t.Fatal("ReadDir accepted two files mapping to workload \"md5\"")
	}
	for _, want := range []string{"md5.pavf", "md5.txt", `"md5"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("collision error %q does not name %s", err, want)
		}
	}
	// Disambiguated by the glob, the same directory is fine.
	got, err := ReadDir(dir, "*.pavf")
	if err != nil {
		t.Fatalf("ReadDir with disambiguating glob: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d workloads, want 2", len(got))
	}
}

func TestReadPAVFDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Written out of sorted order on purpose; named after workloads.
	write("zlib.pavf", "R IQ.rd 0.75\n")
	write("bzip2.pavf", "R IQ.rd 0.25\n")
	write("notes.txt", "not a pavf table\n")

	got, err := ReadDir(dir, "*.pavf")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d workloads, want 2", len(got))
	}
	if got[0].Name != "bzip2" || got[1].Name != "zlib" {
		t.Errorf("workloads not sorted by name: %q, %q", got[0].Name, got[1].Name)
	}
	sp := core.StructPort{Struct: "IQ", Port: "rd"}
	if got[0].Inputs.ReadPorts[sp] != 0.25 || got[1].Inputs.ReadPorts[sp] != 0.75 {
		t.Errorf("workload inputs mixed up: %v, %v",
			got[0].Inputs.ReadPorts[sp], got[1].Inputs.ReadPorts[sp])
	}

	if _, err := ReadDir(dir, "*.nope"); err == nil {
		t.Error("ReadDir accepted a glob matching nothing")
	}
	write("broken.pavf", "R malformed\n")
	if _, err := ReadDir(dir, "*.pavf"); err == nil {
		t.Error("ReadDir accepted a directory with a malformed table")
	}
}

// TestScannerBufferGrowsToCap: the line buffer starts small and grows
// on demand, so a table with a 100 KB line between short ones parses to
// exactly the records it holds, in both table formats, and a line past
// MaxLineBytes fails with the file, its line number and the limit.
func TestScannerBufferGrowsToCap(t *testing.T) {
	longPort := "TOP." + strings.Repeat("x", 100*1024)
	table := "R IQ.rd 0.25\nW " + longPort + " 0.5\nS IQ 0.75\n"
	in, err := Parse("long", strings.NewReader(table))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := core.NewInputs()
	want.ReadPorts[core.StructPort{Struct: "IQ", Port: "rd"}] = 0.25
	want.WritePorts[core.StructPort{Struct: "TOP", Port: longPort[len("TOP."):]}] = 0.5
	want.StructAVF["IQ"] = 0.75
	if !reflect.DeepEqual(in, want) {
		t.Fatalf("Parse of a 100KB-line table = %+v, want %+v", in, want)
	}
	iv, err := ParseIntervals("long", strings.NewReader("# window 0 0 10\n"+table))
	if err != nil {
		t.Fatalf("ParseIntervals: %v", err)
	}
	if len(iv.Windows) != 1 || !reflect.DeepEqual(iv.Windows[0].Inputs, want) {
		t.Fatalf("ParseIntervals of a 100KB-line table = %+v, want one window of %+v", iv.Windows, want)
	}

	huge := "R TOP." + strings.Repeat("y", MaxLineBytes) + " 0.5\n"
	const wantErr = "huge:2: line exceeds 4194304 bytes (not a pAVF table?)"
	if _, err := Parse("huge", strings.NewReader("R IQ.rd 0.25\n"+huge)); err == nil || err.Error() != wantErr {
		t.Fatalf("Parse oversize-line error = %v, want %q", err, wantErr)
	}
	if _, err := ParseIntervals("huge", strings.NewReader("# window 0 0 10\n"+huge)); err == nil || err.Error() != wantErr {
		t.Fatalf("ParseIntervals oversize-line error = %v, want %q", err, wantErr)
	}
}

package ckpt

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "out.json")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "two" {
		t.Fatalf("read back %q, %v", data, err)
	}
	// No temp litter left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "sub", ".tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestEnc(t *testing.T) {
	var e Enc
	e.U8(1)
	e.U32(2)
	e.U64(3)
	e.I64(-4)
	e.F64(1.5)
	e.Str("hi")
	b := e.Bytes()
	want := 1 + 4 + 8 + 8 + 8 + 4 + 2
	if len(b) != want {
		t.Fatalf("encoded %d bytes, want %d", len(b), want)
	}
}

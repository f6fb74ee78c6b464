package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.bin")
	var fsys FS = OS{}
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	af, err := fsys.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := fsys.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len("hello world")) {
		t.Fatalf("size %d, want %d", info.Size(), len("hello world"))
	}
	moved := filepath.Join(dir, "b.bin")
	if err := fsys.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, moved)); got != "hello world" {
		t.Fatalf("content %q", got)
	}
	if err := fsys.Remove(moved); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorOpErrors(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{})
	cases := []struct {
		op  Op
		run func(path string) error
	}{
		{OpCreate, func(p string) error { _, err := in.Create(p); return err }},
		{OpOpen, func(p string) error { _, err := in.Open(p); return err }},
		{OpRename, func(p string) error { return in.Rename(p, p+".new") }},
		{OpRemove, func(p string) error { return in.Remove(p) }},
		{OpStat, func(p string) error { _, err := in.Stat(p); return err }},
	}
	for _, tc := range cases {
		in.Reset()
		path := filepath.Join(dir, string(tc.op)+".bin")
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		in.Arm(Failpoint{Op: tc.op, PathSuffix: string(tc.op) + ".bin"})
		if err := tc.run(path); !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: err = %v, want ErrInjected", tc.op, err)
		}
		// The point is consumed: the same operation now succeeds.
		if err := tc.run(path); errors.Is(err, ErrInjected) {
			t.Fatalf("%s: failpoint fired twice", tc.op)
		}
		if in.Fired() != 1 {
			t.Fatalf("%s: fired = %d, want 1", tc.op, in.Fired())
		}
	}
}

func TestInjectorCountDownAndSuffix(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{})
	in.Arm(Failpoint{Op: OpCreate, PathSuffix: ".tmp", CountDown: 2})
	// Non-matching suffix never counts down.
	for i := 0; i < 5; i++ {
		f, err := in.Create(filepath.Join(dir, "plain.bin"))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for i := 0; i < 2; i++ {
		f, err := in.Create(filepath.Join(dir, "state.tmp"))
		if err != nil {
			t.Fatalf("countdown create %d: %v", i, err)
		}
		f.Close()
	}
	if _, err := in.Create(filepath.Join(dir, "state.tmp")); !errors.Is(err, ErrInjected) {
		t.Fatalf("third matching create: err = %v, want ErrInjected", err)
	}
}

func TestInjectorPersistent(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{})
	in.Arm(Failpoint{Op: OpSync, Persistent: true})
	f, err := in.Create(filepath.Join(dir, "a.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 3; i++ {
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("sync %d: err = %v, want ErrInjected", i, err)
		}
	}
	if in.Fired() != 3 {
		t.Fatalf("fired = %d, want 3", in.Fired())
	}
}

func TestInjectorWriteError(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{})
	in.Arm(Failpoint{Op: OpWrite, CountDown: 1})
	f, err := in.Create(filepath.Join(dir, "a.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("second")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second write: err = %v, want ErrInjected", err)
	}
	// A plain write error is not a crash: the next write goes through.
	if _, err := f.Write([]byte("third")); err != nil {
		t.Fatalf("third write after clean failure: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, filepath.Join(dir, "a.bin"))); got != "firstthird" {
		t.Fatalf("content %q, want %q", got, "firstthird")
	}
}

func TestInjectorCrashAtByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.stb")
	in := NewInjector(OS{})
	in.Arm(Failpoint{Op: OpWrite, PathSuffix: ".stb", Crash: true, CrashAtByte: 7})
	f, err := in.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcd")); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	n, err := f.Write([]byte("efgh"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("crash write: err = %v, want ErrInjected", err)
	}
	if n != 3 {
		t.Fatalf("crash write landed %d bytes, want 3 (budget 7 - 4 written)", n)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: err = %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: err = %v, want ErrCrashed", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close after crash must release the handle: %v", err)
	}
	if got := string(readAll(t, path)); got != "abcdefg" {
		t.Fatalf("on-disk prefix %q, want %q", got, "abcdefg")
	}
	// The crash point is consumed: a rewrite (the recovery path) succeeds.
	f2, err := in.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write([]byte("recovered")); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, path)); got != "recovered" {
		t.Fatalf("recovered content %q", got)
	}
}

func TestInjectorCrashAtByteZero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.stb")
	in := NewInjector(OS{})
	in.Arm(Failpoint{Op: OpWrite, Crash: true})
	f, err := in.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abc"))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write = (%d, %v), want (0, ErrInjected)", n, err)
	}
	f.Close()
	if got := readAll(t, path); len(got) != 0 {
		t.Fatalf("crash at byte 0 left %d bytes", len(got))
	}
}

// TestAppendOrRestore: a clean append lands whole; an append whose second
// write fails under the Injector returns that error and leaves the file
// with its old size and bytes.
func TestAppendOrRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.stb")
	if err := os.WriteFile(path, []byte("head"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(OS{})
	write := func(w io.Writer) error {
		for _, part := range []string{"-one", "-two"} {
			if _, err := w.Write([]byte(part)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := AppendOrRestore(in, path, write); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, path)); got != "head-one-two" {
		t.Fatalf("content %q after a clean append", got)
	}
	in.Arm(Failpoint{Op: OpWrite, PathSuffix: ".stb", CountDown: 1})
	if err := AppendOrRestore(in, path, write); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed append returned %v, want ErrInjected", err)
	}
	if in.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", in.Fired())
	}
	if got := string(readAll(t, path)); got != "head-one-two" {
		t.Fatalf("content %q after a failed append, want the old bytes", got)
	}
}

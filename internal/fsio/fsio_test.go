package fsio

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	if err := OS.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := OS.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	f, err := OS.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = OS.ReadFile(path)
	if string(got) != "hello world" {
		t.Fatalf("after append: %q", got)
	}
}

func TestFaultFSFailWrites(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	ffs.FailWrites(ErrNoSpace)

	path := filepath.Join(dir, "a")
	if err := ffs.WriteFile(path, []byte("x"), 0o644); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("WriteFile err = %v, want ENOSPC", err)
	}
	if _, err := ffs.OpenAppend(path); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("OpenAppend err = %v, want ENOSPC", err)
	}
	if _, err := ffs.CreateTemp(dir, "t*"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("CreateTemp err = %v, want ENOSPC", err)
	}
	if err := ffs.MkdirAll(filepath.Join(dir, "sub"), 0o755); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("MkdirAll err = %v, want ENOSPC", err)
	}
	if got := ffs.FailedOps(); got != 4 {
		t.Errorf("FailedOps = %d, want 4", got)
	}

	// Disarm: everything works again.
	ffs.FailWrites(nil)
	if err := ffs.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestFaultFSTornWrites(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	ffs.TornWrites(true)

	// WriteFile reports success but persists only a prefix.
	path := filepath.Join(dir, "a")
	if err := ffs.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatalf("torn WriteFile should report success, got %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "01234" {
		t.Fatalf("torn WriteFile persisted %q, want half", got)
	}

	// Streamed appends tear the same way while reporting full length.
	f, err := ffs.OpenAppend(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdefgh"))
	if err != nil || n != 8 {
		t.Fatalf("torn append = %d, %v, want 8, nil", n, err)
	}
	f.Close()
	got, _ = os.ReadFile(filepath.Join(dir, "b"))
	if string(got) != "abcd" {
		t.Fatalf("torn append persisted %q, want half", got)
	}
	if ffs.TornOps() != 2 {
		t.Errorf("TornOps = %d, want 2", ffs.TornOps())
	}
}

func TestFaultFSBitRot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := &FaultFS{}
	ffs.BitRot(true)
	got, err := ffs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "0123456789" {
		t.Fatal("bit-rot read came back clean")
	}
	if ffs.RottenReads() != 1 {
		t.Errorf("RottenReads = %d, want 1", ffs.RottenReads())
	}
	// The file itself is untouched; only the read was corrupted.
	ffs.BitRot(false)
	got, _ = ffs.ReadFile(path)
	if string(got) != "0123456789" {
		t.Fatalf("disk was mutated: %q", got)
	}
}

// TestFaultFSConcurrent arms and disarms faults while readers and writers
// hammer the FS; run under -race.
func TestFaultFSConcurrent(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := filepath.Join(dir, "f")
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = ffs.WriteFile(path, []byte("data"), 0o644)
				_, _ = ffs.ReadFile(path)
			}
		}(i)
	}
	for i := 0; i < 100; i++ {
		ffs.TornWrites(i%2 == 0)
		ffs.BitRot(i%3 == 0)
		if i%5 == 0 {
			ffs.FailWrites(ErrNoSpace)
		} else {
			ffs.FailWrites(nil)
		}
	}
	close(stop)
	wg.Wait()
}

// armFS arms its FaultFS's ENOSPC from inside WriteAtomic's sequence, so a
// fault can hit one step after the earlier steps succeeded: "create" arms
// once the temp file exists (the data write fails), "sync" arms when the
// temp file is synced (only the rename fails).
type armFS struct {
	FS
	ffs  *FaultFS
	step string
}

func (a armFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := a.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	if a.step == "create" {
		a.ffs.FailWrites(ErrNoSpace)
	}
	return armFile{f, a}, nil
}

type armFile struct {
	File
	a armFS
}

func (f armFile) Sync() error {
	if f.a.step == "sync" {
		f.a.ffs.FailWrites(ErrNoSpace)
	}
	return f.File.Sync()
}

// TestWriteAtomic drives WriteAtomic over a live file through each disk
// fault. A failed step leaves the live file untouched and no temp file
// behind. A torn write reports success to the writer, so WriteAtomic
// renames the torn bytes into place; the sealed envelope (codec.Open) is
// what rejects them on the next read.
func TestWriteAtomic(t *testing.T) {
	const old, data = "old contents", "0123456789abcdef"
	for _, tc := range []struct {
		name     string
		arm      func(ffs *FaultFS)
		step     string // armFS step, "" for none
		wantErr  bool
		wantLive string
	}{
		{name: "ok", wantLive: data},
		{name: "enospc-create", arm: func(f *FaultFS) { f.FailWrites(ErrNoSpace) }, wantErr: true, wantLive: old},
		{name: "enospc-write", step: "create", wantErr: true, wantLive: old},
		{name: "rename-fails", step: "sync", wantErr: true, wantLive: old},
		{name: "torn", arm: func(f *FaultFS) { f.TornWrites(true) }, wantLive: data[:len(data)/2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "live")
			if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
				t.Fatal(err)
			}
			ffs := &FaultFS{}
			if tc.step != "" {
				ffs.Under = armFS{FS: OS, ffs: ffs, step: tc.step}
			}
			if tc.arm != nil {
				tc.arm(ffs)
			}
			err := WriteAtomic(ffs, path, []byte(data))
			if tc.wantErr && !errors.Is(err, ErrNoSpace) {
				t.Errorf("err = %v, want ENOSPC", err)
			}
			if !tc.wantErr && err != nil {
				t.Errorf("err = %v, want nil", err)
			}
			if got, _ := os.ReadFile(path); string(got) != tc.wantLive {
				t.Errorf("live file = %q, want %q", got, tc.wantLive)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
				t.Errorf("temp files left behind: %v", tmps)
			}
		})
	}
}

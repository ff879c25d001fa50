package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"
)

func TestSum64MatchesHashFNV(t *testing.T) {
	for _, in := range []string{"", "a", "PSC1", "the quick brown fox", string(make([]byte, 4096))} {
		h := fnv.New64a()
		h.Write([]byte(in))
		if got, want := Sum64([]byte(in)), h.Sum64(); got != want {
			t.Errorf("Sum64(%q) = %#x, want %#x", in, got, want)
		}
	}
	// Mix64 folds the little-endian bytes of a word; Update64 chains.
	v := uint64(0x0123456789abcdef)
	le := binary.LittleEndian.AppendUint64(nil, v)
	if got, want := Mix64(FNVOffset64, v), Sum64(le); got != want {
		t.Errorf("Mix64 = %#x, want Sum64 of the LE bytes %#x", got, want)
	}
	if got, want := Update64(Sum64([]byte("ab")), []byte("cd")), Sum64([]byte("abcd")); got != want {
		t.Errorf("chained Update64 = %#x, want %#x", got, want)
	}
}

const (
	testMagic  uint32 = 0x54535431 // "TST1"
	testSchema uint32 = 3
)

// TestSealLayout pins the envelope byte for byte: magic, schema, body, then
// Sum64 over everything before it. PSC1 checkpoint files already on disk use
// this layout, so a change here would turn every cached artifact into a miss.
func TestSealLayout(t *testing.T) {
	body := []byte("payload")
	var want []byte
	want = U32(want, testMagic)
	want = U32(want, testSchema)
	want = append(want, body...)
	want = U64(want, Sum64(want))
	if got := Seal(testMagic, testSchema, body); !bytes.Equal(got, want) {
		t.Fatalf("Seal = %x, want %x", got, want)
	}
	got, err := Open(want, testMagic, testSchema)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("Open = %q, %v", got, err)
	}
	// An empty body is a valid sealed blob.
	if got, err := Open(Seal(testMagic, testSchema, nil), testMagic, testSchema); err != nil || len(got) != 0 {
		t.Fatalf("empty body: %q, %v", got, err)
	}
}

func TestOpenRejects(t *testing.T) {
	blob := Seal(testMagic, testSchema, []byte("small body"))
	open := func(b []byte) error {
		_, err := Open(b, testMagic, testSchema)
		return err
	}
	for n := 0; n < len(blob); n++ {
		if err := open(blob[:n]); err == nil {
			t.Errorf("truncated to %d bytes: opened", n)
		}
	}
	if err := open(nil); !errors.Is(err, ErrShort) {
		t.Errorf("empty blob: %v, want ErrShort", err)
	}
	for i := range blob {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), blob...)
			bad[i] ^= 1 << bit
			if err := open(bad); err == nil {
				t.Errorf("bit %d of byte %d flipped: opened", bit, i)
			}
		}
	}
	if err := open(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing garbage: opened")
	}
	// Well-formed envelopes of another format or schema have valid
	// checksums; the magic and schema checks must catch them.
	if err := open(Seal(testMagic+1, testSchema, []byte("small body"))); err == nil || errors.Is(err, ErrChecksum) {
		t.Errorf("wrong magic: %v", err)
	}
	if err := open(Seal(testMagic, testSchema+1, []byte("small body"))); err == nil || errors.Is(err, ErrChecksum) {
		t.Errorf("schema skew: %v", err)
	}
}

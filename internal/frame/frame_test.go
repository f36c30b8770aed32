package frame

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The frame layout is shared by files on disk and by live workers, so
// its bytes are pinned: CRC32C("abc") is 0x364b3fb7.
func TestAppendGolden(t *testing.T) {
	want := []byte{0x03, 0x00, 0x00, 0x00, 'a', 'b', 'c', 0xb7, 0x3f, 0x4b, 0x36}
	if got := Append(nil, []byte("abc")); !bytes.Equal(got, want) {
		t.Fatalf("Append(abc) = % x, want % x", got, want)
	}
}

func TestReadEndings(t *testing.T) {
	good := Append(nil, []byte("abc"))
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 1
	for _, tc := range []struct {
		name string
		data []byte
		want string // "payload", "eof", "torn" or "corrupt"
	}{
		{"frame", good, "payload"},
		{"empty", nil, "eof"},
		{"torn length", good[:2], "torn"},
		{"torn payload", good[:5], "torn"},
		{"torn CRC", good[:len(good)-1], "torn"},
		{"zero length", []byte{0, 0, 0, 0, 0, 0, 0, 0}, "corrupt"},
		{"over-bound length", []byte{0x01, 0x00, 0x00, 0x04}, "corrupt"},
		{"CRC mismatch", badCRC, "corrupt"},
	} {
		if got := ending(Read(bytes.NewReader(tc.data))); got != tc.want {
			t.Errorf("%s: read as %s, want %s", tc.name, got, tc.want)
		}
	}
}

// ending classifies one Read result.
func ending(p []byte, err error) string {
	var ce *CorruptError
	switch {
	case err == nil && len(p) > 0 && len(p) <= MaxPayload:
		return "payload"
	case err == io.EOF:
		return "eof"
	case err == ErrTorn:
		return "torn"
	case errors.As(err, &ce):
		return "corrupt"
	}
	return "unexpected"
}

// A file cut anywhere before the end of its first frame is a torn
// create; a file with another magic is not.
func TestScanTornCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := Create(path, "test1\n", map[string]int{"n": 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(int, []byte) error { return nil }
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Scan(path, "test1\n", noop); !errors.Is(err, ErrTornCreate) {
			t.Fatalf("cut at %d: %v, want ErrTornCreate", cut, err)
		}
	}
	for _, data := range [][]byte{[]byte("tx"), []byte("other\n")} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Scan(path, "test2\n", noop); err == nil || errors.Is(err, ErrTornCreate) {
			t.Fatalf("%q under another magic: %v, want a refusal", data, err)
		}
	}
}

func FuzzFrame(f *testing.F) {
	f.Add([]byte("abc"))
	f.Add(Append(nil, []byte("abc")))
	f.Add(Append(Append(nil, []byte("one")), []byte("two")))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes read frame by frame: every step is a payload,
		// a clean end, a torn frame or a corrupt frame.
		r := bytes.NewReader(data)
		for {
			p, err := Read(r)
			step := ending(p, err)
			if step == "unexpected" {
				t.Fatalf("Read returned (%d bytes, %v)", len(p), err)
			}
			if step != "payload" {
				break
			}
		}

		// A payload within the bound round-trips, then reads a clean end.
		if len(data) == 0 {
			return
		}
		framed := Append(nil, data)
		r = bytes.NewReader(framed)
		if p, err := Read(r); err != nil || !bytes.Equal(p, data) {
			t.Fatalf("Read(Append(p)) = (%q, %v), want p", p, err)
		}
		if _, err := Read(r); err != io.EOF {
			t.Fatalf("after the frame: %v, want io.EOF", err)
		}
		// Every non-empty strict prefix of a frame is torn (the empty
		// prefix is a clean end). Payloads are capped so the check
		// stays linear in the input.
		framed = Append(nil, data[:min(len(data), 1<<10)])
		for cut := 1; cut < len(framed); cut++ {
			if _, err := Read(bytes.NewReader(framed[:cut])); err != ErrTorn {
				t.Fatalf("prefix of %d of %d bytes: %v, want ErrTorn", cut, len(framed), err)
			}
		}
	})
}

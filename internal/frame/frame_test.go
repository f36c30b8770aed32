package frame

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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

// goldenRecord is a fixed record whose AppendRecord bytes are pinned:
// journal and queue records must come out the same whether their
// compressor is fresh or reused, so existing files keep reading.
type goldenRecord struct {
	Kind    string
	Ordinal int
	Tags    []string
}

func TestAppendRecordGolden(t *testing.T) {
	const want = "490000001f8b08000000000000ffaa56f2cecc4b51b2522a4a2d2ecd2951d251f22f4ac9cc4bcc51b23231d2510a494c2f56b28a567254d2514a2b568aade502040000ffffebf96860310000001e62b06d"
	rec := goldenRecord{"result", 42, []string{"A", "fs"}}
	// Several calls, one after a failed encode, so both fresh and
	// reused compressors are covered.
	for i := 0; i < 3; i++ {
		if i == 2 {
			if _, err := AppendRecord(nil, map[string]any{"bad": make(chan int)}); err == nil {
				t.Fatal("encoding a channel succeeded")
			}
		}
		got, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if h := hex.EncodeToString(got); h != want {
			t.Fatalf("call %d: AppendRecord = %s, want %s", i, h, want)
		}
		payload, err := Read(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		var back goldenRecord
		if err := DecodeRecord(payload, &back); err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("call %d: DecodeRecord = %+v, %v", i, back, err)
		}
	}
}

// TestRecordCodecConcurrent: the pooled compressors are never shared
// by two callers at once; run it under -race.
func TestRecordCodecConcurrent(t *testing.T) {
	want, err := AppendRecord(nil, goldenRecord{"result", 42, []string{"A", "fs"}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := goldenRecord{"result", 42, []string{"A", "fs"}}
				if i%2 == 1 {
					rec = goldenRecord{"lease", g*100 + i, nil}
				}
				b, err := AppendRecord(nil, rec)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 && !bytes.Equal(b, want) {
					t.Errorf("goroutine %d: record %d changed bytes", g, i)
					return
				}
				var back goldenRecord
				if err := DecodeRecord(b[4:len(b)-4], &back); err != nil || !reflect.DeepEqual(back, rec) {
					t.Errorf("goroutine %d: record %d decoded as %+v, %v", g, i, back, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
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

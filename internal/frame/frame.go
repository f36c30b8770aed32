// Package frame is the one byte format every record that leaves an
// injection run travels in: the worker wire protocol (internal/wire),
// the result journal (internal/journal) and kampaignd's shard queue
// (internal/queue). In the paper a controller outside the corrupted
// machine recorded each outcome; these three formats are that
// controller's channel and ledger, so they must never turn damaged
// bytes into a wrong record. A frame is
//
//	uint32 LE payload length | payload | uint32 LE CRC32C(payload)
//
// with 1 <= length <= MaxPayload. A reader tells three endings apart:
//
//   - a clean end: the stream ends exactly at a frame boundary;
//   - a torn frame: the stream ends inside a frame. Writers only ever
//     append whole frames, so this is the signature of a writer (or a
//     peer) that died mid-write, and only the last frame can be torn;
//   - a corrupt frame: a zero or over-bound length, or a fully present
//     frame whose CRC32C does not match. The bytes were damaged, and
//     nothing behind them can be trusted.
//
// A file (a journal or a queue) is a magic string followed by frames,
// the first of which is written together with the magic at create.
// Payload decoding stays with the caller; a payload that passes its
// CRC32C but does not decode is corrupt too.
package frame

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// MaxPayload bounds one frame's payload; a larger length means a
// corrupt or desynchronized stream.
const MaxPayload = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports a stream that ends inside a frame.
var ErrTorn = errors.New("frame: stream ends inside a frame")

// ErrTornCreate reports a file that ends before its first frame is
// complete: an empty file, a prefix of the magic, or the magic and a
// torn first frame. Create writes the magic and the first frame in one
// write, so this is a file whose creator died inside Create.
var ErrTornCreate = errors.New("frame: file ends before its first frame is complete")

// CorruptError reports a corrupt frame. Read leaves Path, Offset and
// Frame zero (a stream has no offsets); Scan fills them in.
type CorruptError struct {
	Path   string
	Offset int64  // file offset of the bad frame's length prefix
	Frame  int    // 0-based index of the bad frame
	Reason string // what failed (bad length, CRC32C mismatch, undecodable payload)
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return "corrupt frame: " + e.Reason
	}
	return fmt.Sprintf("%s: corrupt frame %d at offset %d: %s", e.Path, e.Frame, e.Offset, e.Reason)
}

// Append appends payload to dst as one frame. The payload must be
// non-empty and at most MaxPayload bytes; readers reject anything else
// as corrupt.
func Append(dst, payload []byte) []byte {
	dst = slices.Grow(dst, 4+len(payload)+4)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// Read reads one frame from r and returns its payload. It returns
// io.EOF at a clean end, ErrTorn when r ends inside the frame, and a
// *CorruptError for a bad length or a CRC32C mismatch; any other error
// from r is returned as is.
func Read(r io.Reader) ([]byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, tornOr(err)
	}
	n := binary.LittleEndian.Uint32(head[:])
	if n == 0 || n > MaxPayload {
		return nil, &CorruptError{Reason: fmt.Sprintf("insane frame length %d", n)}
	}
	buf := make([]byte, n+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return nil, ErrTorn
		}
		return nil, tornOr(err)
	}
	payload := buf[:n]
	want := binary.LittleEndian.Uint32(buf[n:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &CorruptError{Reason: fmt.Sprintf("CRC32C mismatch: frame declares %#08x, payload hashes to %#08x", want, got)}
	}
	return payload, nil
}

// tornOr maps a short read to ErrTorn and passes anything else through.
func tornOr(err error) error {
	if err == io.ErrUnexpectedEOF {
		return ErrTorn
	}
	return err
}

// gzipWriters recycles the record codec's compressors: a fresh
// gzip.Writer allocates most of a megabyte, and a campaign writes a
// record for every result. Reset keeps the default level and the zero
// header, so the bytes do not change.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// AppendRecord appends v to dst as one frame whose payload is a single
// gzip member holding v's JSON encoding: the journal's and the queue's
// record codec.
func AppendRecord(dst []byte, v any) ([]byte, error) {
	var payload bytes.Buffer
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(&payload)
	if err := json.NewEncoder(zw).Encode(v); err != nil {
		return dst, fmt.Errorf("frame: encode record: %w", err)
	}
	if err := zw.Close(); err != nil {
		return dst, fmt.Errorf("frame: gzip record: %w", err)
	}
	return Append(dst, payload.Bytes()), nil
}

// DecodeRecord decodes a payload written by AppendRecord into v. Its
// error reads as a CorruptError reason, for Scan callbacks to return.
func DecodeRecord(payload []byte, v any) error {
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("undecodable payload: %v", err)
	}
	defer zr.Close()
	if err := json.NewDecoder(zr).Decode(v); err != nil {
		return fmt.Errorf("undecodable payload: %v", err)
	}
	return nil
}

// Create creates (or truncates) the file at path and durably writes
// magic followed by first as one record frame: the file is fsync'd,
// then its parent directory, so a power loss right after Create cannot
// leave the file unreachable. The returned file is open for appending.
func Create(path, magic string, first any) (*os.File, error) {
	buf, err := AppendRecord([]byte(magic), first)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, fmt.Errorf("frame: sync parent dir: %w", err)
	}
	return f, nil
}

func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Extent is the intact part of a scanned file.
type Extent struct {
	End    int64 // offset just past the last intact frame
	Frames int   // intact frames, the first one included
	Torn   bool  // the file ends inside a frame after End
}

// Scan reads the file at path: its magic, then every frame up to a
// clean end or a torn tail, handing each intact payload to fn in order
// with its 0-based index. An error from fn means the payload does not
// decode: Scan reports that frame as corrupt, with fn's error as the
// reason.
//
// On a *CorruptError the returned Extent still covers the intact
// prefix, and fn has seen every frame in it. A file with no complete
// first frame yields ErrTornCreate; a file that does not start with
// (a prefix of) magic is refused with a plain error.
func Scan(path, magic string, fn func(i int, payload []byte) error) (Extent, error) {
	f, err := os.Open(path)
	if err != nil {
		return Extent{}, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	head := make([]byte, len(magic))
	n, err := io.ReadFull(br, head)
	switch {
	case string(head[:n]) != magic[:n]:
		return Extent{}, fmt.Errorf("frame: %s is not a %s file", path, strings.TrimSpace(magic))
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return Extent{}, fmt.Errorf("%s: %w", path, ErrTornCreate)
	case err != nil:
		return Extent{}, fmt.Errorf("frame: read %s: %w", path, err)
	}
	ext := Extent{End: int64(len(magic))}
	for {
		payload, err := Read(br)
		if err == nil {
			if err := fn(ext.Frames, payload); err != nil {
				return ext, &CorruptError{Path: path, Offset: ext.End, Frame: ext.Frames, Reason: err.Error()}
			}
			ext.End += 4 + int64(len(payload)) + 4
			ext.Frames++
			continue
		}
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Path, ce.Offset, ce.Frame = path, ext.End, ext.Frames
			return ext, ce
		}
		if err != io.EOF && err != ErrTorn {
			return ext, fmt.Errorf("frame: read %s: %w", path, err)
		}
		ext.Torn = err == ErrTorn
		if ext.Frames == 0 {
			return ext, fmt.Errorf("%s: %w", path, ErrTornCreate)
		}
		return ext, nil
	}
}

// Reopen opens a scanned file for appending: it truncates a torn tail
// at end, fsyncs the truncation and positions the file at end.
func Reopen(path string, end int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("frame: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("frame: sync truncation: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

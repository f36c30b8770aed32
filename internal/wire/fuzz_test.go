package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func FuzzWireRecv(f *testing.F) {
	var buf bytes.Buffer
	c := NewConn(&buf, &buf)
	for _, m := range []*Msg{
		{Type: TypeHello, Version: ProtocolVersion, Spec: &StudySpec{Seed: 2003, Campaigns: "ABC"}},
		{Type: TypeRun, Campaign: "C", Ordinal: 12},
		{Type: TypeBeat},
	} {
		if err := c.Send(m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(bytes.NewReader(data), io.Discard)
		for {
			_, err := c.Recv()
			if err == nil {
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("Recv error %v is neither io.EOF nor ErrBadFrame", err)
			}
			return
		}
	})
}

package wire

import (
	"bytes"
	"testing"
)

// benchRequests are a Put frame, kiwi-shaped (a 24-byte key and a 100-byte
// value), and a bounded Scan frame.
var benchRequests = []struct {
	name string
	req  Request
}{
	{"put", Request{Op: OpPut, Key: bytes.Repeat([]byte{'k'}, 24), Value: bytes.Repeat([]byte{'v'}, 100)}},
	{"scan", Request{Op: OpScan, Key: []byte("user000000000000001000"), Value: []byte("user000000000000002000"), Limit: 100}},
}

// encodeDecode appends req to buf, decodes it back and returns the buffer
// for the next round.
func encodeDecode(tb testing.TB, buf []byte, req Request) []byte {
	buf = AppendRequest(buf[:0], req)
	got, err := DecodeRequest(buf)
	if err != nil || got.Op != req.Op || len(got.Key) != len(req.Key) {
		tb.Fatalf("%v round trip: %+v, %v", req.Op, got, err)
	}
	return buf
}

// BenchmarkEncodeDecodeRequest prices a request's trip through the codec:
// encoded onto a reused buffer as the client does, decoded as the server
// does.
func BenchmarkEncodeDecodeRequest(b *testing.B) {
	for _, bc := range benchRequests {
		b.Run(bc.name, func(b *testing.B) {
			buf := encodeDecode(b, nil, bc.req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = encodeDecode(b, buf, bc.req)
			}
		})
	}
}

// TestEncodeDecodeRequestAllocs holds BenchmarkEncodeDecodeRequest at its
// measured count: neither frame allocates, since the encoding appends to the
// caller's buffer and the decoded request aliases it.
func TestEncodeDecodeRequestAllocs(t *testing.T) {
	for _, bc := range benchRequests {
		buf := encodeDecode(t, nil, bc.req)
		if a := testing.AllocsPerRun(1000, func() { buf = encodeDecode(t, buf, bc.req) }); a > 0 {
			t.Errorf("%s: %v allocs a round trip, want 0", bc.name, a)
		}
	}
}

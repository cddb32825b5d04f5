package server

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime/debug"
	"strings"
	"testing"

	"wishbone/internal/wire"
)

// spaceBlock is the run of ASCII spaces spaces copies from.
var spaceBlock = []byte(strings.Repeat(" ", 32<<10))

// spaces yields n ASCII spaces without holding them in memory.
type spaces struct{ n int64 }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > s.n {
		p = p[:s.n]
	}
	n := copy(p, spaceBlock)
	s.n -= int64(n)
	return n, nil
}

// TestRequestBodyCap pins MaxRequestBytes on the endpoints that carry
// the largest bodies: a body of exactly the cap is read and judged on
// its content, one byte more is refused with a typed 413. The JSON
// bodies are padded with whitespace inside the object, so the decoder
// must read every byte before it can finish.
func TestRequestBodyCap(t *testing.T) {
	if raceEnabled {
		// One request at a time gives the detector nothing to find, and
		// its instrumented JSON scanner takes about 40 s and 800 MB over
		// the 256 MiB of padding.
		t.Skip("streams 64 MiB bodies one at a time; nothing for the race detector")
	}
	_, client := startServer(t, Config{})
	// The server holds each body (JSON bodies twice over, while the
	// decoder's buffer grows); collect eagerly to keep the test's peak
	// memory near one body's worth.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	// Each body is refused on its content (400) when it fits the cap.
	for _, tc := range []struct{ path, open, close string }{
		{"/v1/simulate", `{"platform":"nope"`, `}`},
		{"/v1/shard/open", `{"platform":"nope"`, `}`},
		{"/v1/shard/compute", string([]byte{wire.SnapshotVersion, 0x01}), ``},
	} {
		for _, size := range []int64{MaxRequestBytes, MaxRequestBytes + 1} {
			pad := size - int64(len(tc.open)+len(tc.close))
			body := io.MultiReader(strings.NewReader(tc.open), &spaces{pad}, strings.NewReader(tc.close))
			req, err := http.NewRequest(http.MethodPost, client.base+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = size
			resp, err := client.http.Do(req)
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", tc.path, size, err)
			}
			var er wire.ErrorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if size <= MaxRequestBytes {
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s, %d bytes (at the cap): status %d code %q, want 400", tc.path, size, resp.StatusCode, er.Code)
				}
				continue
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Code != "body_too_large" {
				t.Errorf("%s, %d bytes (over the cap): status %d code %q (%s), want 413 body_too_large",
					tc.path, size, resp.StatusCode, er.Code, er.Error)
			}
		}
	}
}

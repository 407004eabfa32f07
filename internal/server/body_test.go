package server

// Tests for request-body decoding: every 400 and 413 a malformed body can
// get from /v1/run, /v1/sweep and POST /v1/campaigns, with its exact
// message, and a differential fuzz target against the plain
// json.NewDecoder(http.MaxBytesReader(...)) decode.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"malec/internal/engine"
)

// bodyCase is one malformed body and the exact reply it must get.
type bodyCase struct {
	name, body string
	status     int
	msg        string
}

// bodyCases returns the malformed-body cases of one endpoint: grid bodies
// (sweep, campaigns) name their fields configs, run bodies config. Type
// errors read the same for every endpoint: they name the key path and the
// JSON kinds, never the Go structs behind them.
func bodyCases(grid bool) []bodyCase {
	field, bad := `"config":"`, `{"config":"NoSuch","benchmark":"gzip"}`
	if grid {
		field, bad = `"configs":["`, `{"configs":["NoSuch"]}`
	}
	return []bodyCase{
		{"oversized", "{" + field + strings.Repeat("x", maxBodyBytes+1) + `"}`,
			http.StatusRequestEntityTooLarge, "request body exceeds 1048576 bytes"},
		{"unknown field", `{"bogus":1}`,
			http.StatusBadRequest, `invalid request body: json: unknown field "bogus"`},
		{"truncated", "{" + field,
			http.StatusBadRequest, "invalid request body: unexpected EOF"},
		{"empty", "",
			http.StatusBadRequest, "invalid request body: EOF"},
		{"wrong type", `{"instructions":"many"}`,
			http.StatusBadRequest, `invalid request body: field "instructions" must be an integer, not a string`},
		{"fractional", `{"instructions":1.5}`,
			http.StatusBadRequest, `invalid request body: field "instructions" must be an integer, not 1.5`},
		{"nested wrong type", `{"sampling":{"Warmup":true}}`,
			http.StatusBadRequest, `invalid request body: field "sampling.Warmup" must be an integer, not a boolean`},
		{"not an object", `[1]`,
			http.StatusBadRequest, `invalid request body: the body must be an object, not an array`},
		// The decoder reads one value and ignores what follows, so the
		// reply is the validation error of the first object.
		{"trailing bytes", bad + ` {"more":`,
			http.StatusBadRequest, `unknown config "NoSuch" (see /v1/configs)`},
	}
}

func TestRequestBodyErrors(t *testing.T) {
	var closed atomic.Int64
	eng := engine.New(engine.Options{Workers: 1, Simulate: plain(stubSim)})
	ts := httptest.NewUnstartedServer(New(eng, Options{}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateClosed {
			closed.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	for _, ep := range []struct {
		path  string
		cases []bodyCase
	}{
		{"/v1/run", bodyCases(false)},
		{"/v1/sweep", bodyCases(true)},
		{"/v1/campaigns", bodyCases(true)},
	} {
		for _, c := range ep.cases {
			before := closed.Load()
			resp, raw := post(t, ts.URL+ep.path, c.body)
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("%s %s: no error envelope in %s", ep.path, c.name, raw)
			}
			if resp.StatusCode != c.status || e.Error != c.msg {
				t.Errorf("%s %s: %d %q, want %d %q", ep.path, c.name, resp.StatusCode, e.Error, c.status, c.msg)
			}
			if c.status != http.StatusRequestEntityTooLarge {
				continue
			}
			// A 413 tells the client the connection is done, and the
			// server closes it.
			if !resp.Close {
				t.Errorf("%s %s: response keeps the connection open", ep.path, c.name)
			}
			for deadline := time.Now().Add(5 * time.Second); closed.Load() == before; {
				if time.Now().After(deadline) {
					t.Fatalf("%s %s: server never closed the connection", ep.path, c.name)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// oracleReadBody is the reference decode: the request body read through
// http.MaxBytesReader by a json.Decoder that rejects unknown fields, with
// errors worded by bodyError.
func oracleReadBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid request body: %s", bodyError(v, err))
		return false
	}
	return true
}

// FuzzReadBody checks that /v1/run's pooled body read decodes every input
// of at most maxBodyBytes exactly as the reference decode does: the same
// status, the same message and the same runRequest. A longer body is
// always a 413, which the reference gives only when the first JSON value
// runs past the limit.
func FuzzReadBody(f *testing.F) {
	// The oversized seed is built here rather than stored: it is a
	// megabyte. The corpus files hold the other malformed bodies.
	f.Add([]byte(`{"config":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`))
	f.Add([]byte(memoSampledBody))
	f.Fuzz(func(t *testing.T, data []byte) {
		newReq := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v1/run", io.NopCloser(bytes.NewReader(data)))
		}
		got := httptest.NewRecorder()
		b := getRequestBody()
		defer b.release()
		gotOK := b.decode(got, newReq(), &b.run)

		if len(data) > maxBodyBytes {
			if gotOK || got.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body: status %d, want 413", len(data), got.Code)
			}
			return
		}
		want := httptest.NewRecorder()
		var wantReq runRequest
		wantOK := oracleReadBody(want, newReq(), &wantReq)
		if gotOK != wantOK || got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("body %q: got %v %d %s, want %v %d %s",
				data, gotOK, got.Code, got.Body, wantOK, want.Code, want.Body)
		}
		if gotOK && !reflect.DeepEqual(b.run, wantReq) {
			t.Fatalf("body %q: decoded %+v, want %+v", data, b.run, wantReq)
		}
	})
}

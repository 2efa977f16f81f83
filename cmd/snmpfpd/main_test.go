package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWithPprof pins that the pprof mount serves every page its index links
// to, on primaries and replicas alike, and leaves other paths to the API.
func TestWithPprof(t *testing.T) {
	api := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "api")
	})
	ts := httptest.NewServer(withPprof(api))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, body := get("/v1/stats"); code != http.StatusOK || body != "api" {
		t.Fatalf("/v1/stats: %d %q", code, body)
	}
}

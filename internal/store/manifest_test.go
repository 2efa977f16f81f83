package store

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzManifest hammers parseManifest with arbitrary bytes: no input may
// panic, and every manifest it accepts must survive a render/parse round
// trip unchanged, so a manifest the store reads back is the one it would
// write. Each input is parsed as given and, since mutations rarely keep the
// checksum valid, again as the JSON line under a correct checksum.
func FuzzManifest(f *testing.F) {
	for _, m := range []*manifest{
		{Version: 1},
		{Version: 1, Campaigns: 3, Seq: 42, NextFile: 9, Segments: []string{"000007.seg", "000008.seg"}},
		{Version: 1, Segments: []string{}},
		{Version: 2, Seq: 1},
	} {
		rendered, err := renderManifest(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rendered)
	}
	f.Add([]byte(goldenManifest))
	f.Add([]byte("{\"version\":1}\n"))
	f.Add([]byte("{\"version\":1,\"segments\":[\"\\ud800\"]}\nzzzzzzzz\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkManifestRoundTrip(t, data)
		checkManifestRoundTrip(t, fmt.Appendf(nil, "%s\n%08x\n", data, crc32.Checksum(data, castagnoli)))
	})
}

func checkManifestRoundTrip(t *testing.T, data []byte) {
	m, err := parseManifest(data)
	if err != nil {
		return
	}
	rendered, err := renderManifest(&m)
	if err != nil {
		t.Fatalf("accepted manifest %+v does not render: %v", m, err)
	}
	again, err := parseManifest(rendered)
	if err != nil {
		t.Fatalf("rendered manifest %q does not parse: %v", rendered, err)
	}
	if !reflect.DeepEqual(again, m) {
		t.Fatalf("manifest round trip changed it: %+v -> %+v", m, again)
	}
}

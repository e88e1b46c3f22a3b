package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGolden pins hybridlb's output byte for byte for three flag sets.
// The first line of each golden records the GOARCH it was captured on:
// the figures pass through math.Exp, whose last bit depends on the
// architecture, so on another GOARCH a mismatch starts at that line.
// Regenerate with `go test ./cmd/hybridlb -update`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"av500", []string{"-a", "0", "-b", "4", "-for", "60s", "-spec", "AV500"}},
		{"large-office", []string{"-scenario", "large-office", "-a", "0", "-b", "7"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			fmt.Fprintf(&got, "# GOARCH=%s\n", runtime.GOARCH)
			if err := run(tc.args, &got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
		})
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The whole report is pinned byte for byte.
func TestReportGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "jobmarket.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from testdata/jobmarket.golden\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}

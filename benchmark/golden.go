package main

import (
	_ "embed"
	"encoding/json"
)

// goldenJSON is compiled in, so the comparison works from any directory.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("benchmark: golden.json: " + err.Error())
	}
	return g
}

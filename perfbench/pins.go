package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// pins.json holds, per workload and seed, the pass digest the
// benchmark must reproduce (and, for paper-hot, each experiment's
// table SHA-256). A run at a pinned seed fails every op of a pass
// whose outputs differ.
//
//go:embed pins.json
var pinsJSON []byte

type pin struct {
	Digest string            `json:"digest"`
	Tables map[string]string `json:"tables,omitempty"`
}

var pins = func() map[string]map[string]pin {
	var p map[string]map[string]pin
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("perfbench: pins.json: " + err.Error())
	}
	return p
}()

// pinned returns the pinned digest and table hashes for a workload and
// seed, or "" and nil when the seed is not pinned.
func pinned(workload string, seed uint64) (string, map[string]string) {
	p := pins[workload][strconv.FormatUint(seed, 10)]
	return p.Digest, p.Tables
}

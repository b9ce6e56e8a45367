package sql

// Test files may link the oracles: that is where the differential suites
// live.

import (
	"l.example/internal/bridge"
	"l.example/internal/core"
)

func oracle(db *DB) *core.WSD { return bridge.ToWSD(db.s) }

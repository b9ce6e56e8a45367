// Package bridge converts engine state for the oracles; imports of the
// engine from here are out of the analyzer's scope.
package bridge

import (
	"l.example/internal/core"
	"l.example/internal/engine"
)

func ToWSD(*engine.Store) *core.WSD { return nil }

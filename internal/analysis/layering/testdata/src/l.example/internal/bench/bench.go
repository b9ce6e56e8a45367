// Package bench is tooling, not a serving package: it links oracles freely.
package bench

import (
	"l.example/internal/bridge"
	"l.example/internal/worlds"
)

var (
	_ = bridge.ToWSD
	_ worlds.WorldSet
)

func Prepare() {}

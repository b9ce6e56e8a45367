package sql

import (
	"l.example/internal/engine"
	"l.example/internal/shard"
	"l.example/internal/worlds" // want `serving package l.example/internal/sql imports l.example/internal/worlds`
)

type DB struct {
	s  *engine.Store
	sh *shard.Store
}

func PrepareWorlds(*worlds.WorldSet) *DB { return nil }

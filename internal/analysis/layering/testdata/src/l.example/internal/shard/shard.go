package shard

import "l.example/internal/engine"

type Store struct{ s *engine.Store }

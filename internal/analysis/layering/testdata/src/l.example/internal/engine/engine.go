package engine

import (
	"fmt"

	"l.example/internal/core" // want `serving package l.example/internal/engine imports l.example/internal/core`
	"l.example/internal/relation"
)

type Store struct{ v relation.Value }

func (s *Store) ToWSD() *core.WSD { fmt.Sprint(s.v); return nil }

package client

import (
	"l.example" // want `serving package l.example/internal/server/client imports l.example:`
	"l.example/internal/server"
)

type Conn struct{ s *server.Server }

var _ = facade.Everything

package main

import (
	"l.example/internal/bench" // want `serving package l.example/cmd/maybmsd imports l.example/internal/bench`
	"l.example/internal/census"
	"l.example/internal/server"
	"l.example/internal/server/client" // want `imports l.example/internal/server/client`
)

func main() {
	_ = bench.Prepare
	_ = census.Rows
	_ = server.Server{}
	_ = client.Conn{}
}

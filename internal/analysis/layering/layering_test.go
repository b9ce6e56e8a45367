package layering_test

import (
	"testing"

	"maybms/internal/analysis/internal/vettest"
	"maybms/internal/analysis/layering"
)

func TestLayering(t *testing.T) {
	vettest.Run(t, vettest.TestData(), layering.Analyzer,
		"l.example/internal/engine",
		"l.example/internal/sql",
		"l.example/internal/server/client",
		"l.example/cmd/maybmsd",
		"l.example/internal/bench", // out of scope: must stay silent
	)
}

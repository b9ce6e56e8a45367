// Package relation is allowed everywhere.
package relation

type Value int

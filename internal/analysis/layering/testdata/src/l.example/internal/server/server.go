package server

import "l.example/internal/sql"

type Server struct{ db *sql.DB }

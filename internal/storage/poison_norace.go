//go:build !race

package storage

// poisonReleased is off outside race builds; see poison_race.go.
const poisonReleased = false

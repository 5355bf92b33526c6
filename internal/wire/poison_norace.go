//go:build !race

package wire

// poisonOnPut is off outside race builds (see poison_race.go).
const poisonOnPut = false

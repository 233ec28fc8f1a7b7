package core

// RaceEnabled lets the external tests skip what the race detector slows
// past their budget.
const RaceEnabled = raceEnabled

package netserve

// BurstEvents lets the external tests size their frames from the cap.
const BurstEvents = burstEvents

package durable

// HoldSyncer takes the writer's io lock, as TestCrashAbandonsUnsynced does,
// so no syncer cycle writes until release is called: every record appended
// meanwhile stays pending.
func (l *Log) HoldSyncer() (release func()) {
	l.w.io.Lock()
	return l.w.io.Unlock
}

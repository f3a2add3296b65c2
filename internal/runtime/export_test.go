package runtime

// EventQueueFree is how many more events the queue takes before a sender
// blocks.
func (rt *Runtime) EventQueueFree() int { return cap(rt.events) - len(rt.events) }

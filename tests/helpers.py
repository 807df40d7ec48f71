"""Shared test helpers."""


def record(view, episode, task_type="qa"):
    """Store ``episode`` as a task record that used no procedure."""
    return view.record_task(episode, task_type, [])
